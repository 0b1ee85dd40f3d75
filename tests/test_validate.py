"""Tests for static plan-coverage validation."""

import numpy as np
import pytest

from repro.core.intra import plan_intra_mesh
from repro.core.mesh import DeviceMesh
from repro.core.plan import SendOp
from repro.core.task import ReshardingTask
from repro.core.validate import PlanValidationError, raise_on_plan_errors
from repro.sim.cluster import Cluster, ClusterSpec
from repro.strategies import make_strategy


def make_task(src_spec="S0RR", dst_spec="RS1R", shape=(8, 8, 8)):
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    return ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=np.float32)


SPECS = ["RRR", "S0RR", "RS1R", "S01RR", "S0S1R", "RRS0"]


@pytest.mark.parametrize("strategy", ["send_recv", "allgather", "broadcast"])
@pytest.mark.parametrize("src_spec", SPECS)
@pytest.mark.parametrize("dst_spec", SPECS)
def test_all_strategy_plans_validate(strategy, src_spec, dst_spec):
    task = make_task(src_spec, dst_spec)
    plan = make_strategy(strategy).plan(task)
    assert raise_on_plan_errors(plan).ok


def test_dropped_op_detected():
    plan = make_strategy("broadcast").plan(make_task())
    plan.ops.pop()
    with pytest.raises(PlanValidationError, match="never delivered"):
        raise_on_plan_errors(plan)


def test_wrong_sender_detected():
    task = make_task("S0RR", "S0RR")
    plan = make_strategy("send_recv").plan(task)
    bad = plan.ops[0]
    # replace with a sender from the wrong half of the source mesh
    wrong_sender = (
        task.src_mesh.devices[-1]
        if bad.sender != task.src_mesh.devices[-1]
        else task.src_mesh.devices[0]
    )
    plan.ops[0] = SendOp(
        op_id=bad.op_id,
        unit_task_id=bad.unit_task_id,
        region=bad.region,
        nbytes=bad.nbytes,
        sender=wrong_sender,
        receiver=bad.receiver,
    )
    with pytest.raises(PlanValidationError, match="holds"):
        raise_on_plan_errors(plan)


def test_foreign_sender_detected():
    task = make_task("RRR", "RRR")
    plan = make_strategy("broadcast").plan(task)
    op = plan.ops[0]
    plan.ops[0] = type(op)(
        op_id=op.op_id,
        unit_task_id=op.unit_task_id,
        region=op.region,
        nbytes=op.nbytes,
        sender=task.dst_mesh.devices[0],  # not a source device
        receivers=op.receivers,
        n_chunks=op.n_chunks,
    )
    with pytest.raises(PlanValidationError, match="not a source-mesh"):
        raise_on_plan_errors(plan)


def test_allgather_without_scatter_detected():
    task = make_task("RRR", "S0RR")
    plan = make_strategy("allgather").plan(task)
    # drop the scatters, keep the all-gathers
    plan.ops = [op for op in plan.ops if type(op).__name__ == "AllGatherOp"]
    with pytest.raises(PlanValidationError, match="all-gather"):
        raise_on_plan_errors(plan)


def test_intra_mesh_plan_validates_with_local_reuse():
    c = Cluster(ClusterSpec(n_hosts=2, devices_per_host=4))
    mesh = DeviceMesh.from_hosts(c, [0, 1])
    plan = plan_intra_mesh((8, 8, 8), mesh, "S0RR", "RS1R")
    assert raise_on_plan_errors(plan).ok
