"""Functional correctness of resharding: plans must move real bytes.

The strongest guarantee in the library: for every strategy and layout
pair, executing the compiled plan on NumPy shards reconstructs exactly
the destination layout.  (The paper's system gets this from NCCL; we
prove our plans are semantically correct.)
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import reshard
from repro.core.data import DataPlaneError, apply_plan
from repro.core.mesh import DeviceMesh
from repro.core.plan import AllGatherOp, BroadcastOp, ScatterOp, SendOp
from repro.core.task import ReshardingTask
from repro.core.tensor import DistributedTensor, read_region
from repro.core.verify_data import verify_delivery
from repro.sim.cluster import Cluster, ClusterSpec
from repro.strategies import make_strategy

STRATEGIES = ["send_recv", "allgather", "broadcast"]
SPECS_3D = ["RRR", "S0RR", "RS1R", "S01RR", "S0S1R", "RS10R", "RRS0", "S1RS0"]


def build(src_spec, dst_spec, shape=(8, 8, 8), src_hosts=2, dst_hosts=2, dph=4):
    c = Cluster(ClusterSpec(n_hosts=src_hosts + dst_hosts, devices_per_host=dph))
    src = DeviceMesh.from_hosts(c, range(src_hosts))
    dst = DeviceMesh.from_hosts(c, range(src_hosts, src_hosts + dst_hosts))
    arr = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
    task = ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=arr.dtype)
    src_tensor = DistributedTensor.from_global(src, task.src_spec, arr)
    return task, src_tensor, arr


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("src_spec", SPECS_3D)
@pytest.mark.parametrize("dst_spec", SPECS_3D)
def test_reshard_reconstructs_tensor(strategy, src_spec, dst_spec):
    task, src_tensor, arr = build(src_spec, dst_spec)
    plan = make_strategy(strategy).plan(task)
    out = apply_plan(plan, src_tensor)
    assert out.spec == task.dst_spec
    assert np.array_equal(out.to_global(), arr)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_uneven_shapes(strategy):
    """Shapes that do not divide evenly by the shard counts."""
    task, src_tensor, arr = build("S0RR", "S0RR", shape=(9, 7, 5),
                                  src_hosts=2, dst_hosts=3)
    plan = make_strategy(strategy).plan(task)
    out = apply_plan(plan, src_tensor)
    assert np.array_equal(out.to_global(), arr)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_different_mesh_shapes(strategy):
    task, src_tensor, arr = build("RRR", "RRR", src_hosts=2, dst_hosts=3, dph=2)
    plan = make_strategy(strategy).plan(task)
    out = apply_plan(plan, src_tensor)
    assert np.array_equal(out.to_global(), arr)


def test_signal_plan_refuses_data():
    task, src_tensor, _ = build("RRR", "RRR")
    plan = make_strategy("signal").plan(task)
    with pytest.raises(DataPlaneError, match="data_complete"):
        apply_plan(plan, src_tensor)


def test_wrong_source_layout_rejected():
    task, _, arr = build("S0RR", "RRR")
    wrong = DistributedTensor.from_global(task.src_mesh, "RS1R", arr)
    plan = make_strategy("broadcast").plan(task)
    with pytest.raises(DataPlaneError, match="layout"):
        apply_plan(plan, wrong)


def test_missing_op_detected():
    """Dropping an op must surface as incomplete coverage."""
    task, src_tensor, _ = build("S0RR", "S0RR")
    plan = make_strategy("broadcast").plan(task)
    plan.ops.pop()
    with pytest.raises(DataPlaneError, match="missing"):
        apply_plan(plan, src_tensor)


MALFORMED_OPS = {
    "send_wrong_rank": ("send_recv", SendOp, lambda op: {"region": op.region[:-1]}, "rank"),
    "broadcast_wrong_rank": (
        "broadcast", BroadcastOp, lambda op: {"region": op.region[:-1]}, "rank"
    ),
    "scatter_empty_region": (
        "allgather",
        ScatterOp,
        lambda op: {"region": ((op.region[0][0],) * 2, *op.region[1:])},
        "cannot split size 0",
    ),
    "scatter_no_receivers": (
        "allgather", ScatterOp, lambda op: {"receivers": ()}, "n must be >= 1"
    ),
}


@pytest.mark.parametrize("case", MALFORMED_OPS)
def test_malformed_op_raises_data_plane_error(case):
    """A malformed op the verifier refuses is a typed data-plane error,
    not a ``ValueError`` leaking from the slice helpers."""
    strategy, kind, change, match = MALFORMED_OPS[case]
    task, src_tensor, _ = build("S0RR", "RS1R")
    plan = make_strategy(strategy).plan(task)
    i = next(i for i, op in enumerate(plan.ops) if isinstance(op, kind))
    plan.ops[i] = dataclasses.replace(plan.ops[i], **change(plan.ops[i]))
    assert not verify_delivery(plan, raise_on_error=False).certified
    with pytest.raises(DataPlaneError, match=match):
        apply_plan(plan, src_tensor)


def test_fp16_dtype_roundtrip():
    shape = (8, 8, 8)
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    arr = np.arange(np.prod(shape), dtype=np.float16).reshape(shape)
    task = ReshardingTask(shape, src, "S0RR", dst, "RS1R", dtype=np.float16)
    out = apply_plan(
        make_strategy("broadcast").plan(task),
        DistributedTensor.from_global(src, task.src_spec, arr),
    )
    assert out.dtype == np.float16
    assert np.array_equal(out.to_global(), arr)


def test_slice_granularity_broadcast_also_correct():
    task, src_tensor, arr = build("S0RR", "S01RR")
    plan = make_strategy("broadcast", granularity="slice").plan(task)
    out = apply_plan(plan, src_tensor)
    assert np.array_equal(out.to_global(), arr)


@settings(max_examples=30, deadline=None)
@given(
    src_spec=st.sampled_from(SPECS_3D),
    dst_spec=st.sampled_from(SPECS_3D),
    strategy=st.sampled_from(STRATEGIES),
    d0=st.integers(8, 13),
    d1=st.integers(8, 13),
    d2=st.integers(8, 13),
)
def test_property_any_layout_pair_roundtrips(src_spec, dst_spec, strategy, d0, d1, d2):
    task, src_tensor, arr = build(src_spec, dst_spec, shape=(d0, d1, d2))
    plan = make_strategy(strategy).plan(task)
    out = apply_plan(plan, src_tensor)
    assert np.array_equal(out.to_global(), arr)


# ----------------------------------------------------------------------
# DistributedTensor itself
# ----------------------------------------------------------------------
def test_distributed_tensor_from_global_shards():
    c = Cluster(ClusterSpec(n_hosts=1, devices_per_host=4))
    mesh = DeviceMesh.from_hosts(c, [0])
    arr = np.arange(16.0).reshape(4, 4)
    dt = DistributedTensor.from_global(mesh, "RS1", arr)
    assert dt.shards[0].shape == (4, 1)
    assert np.array_equal(dt.shards[2][:, 0], arr[:, 2])
    assert np.array_equal(dt.to_global(), arr)


def test_distributed_tensor_replica_mismatch_detected():
    c = Cluster(ClusterSpec(n_hosts=1, devices_per_host=2))
    mesh = DeviceMesh.from_hosts(c, [0])
    arr = np.ones((4, 4), dtype=np.float32)
    dt = DistributedTensor.from_global(mesh, "RR", arr)
    dt.shards[1][0, 0] = 42.0
    with pytest.raises(ValueError, match="replica"):
        dt.to_global()


def test_distributed_tensor_shape_validation():
    c = Cluster(ClusterSpec(n_hosts=1, devices_per_host=2))
    mesh = DeviceMesh.from_hosts(c, [0])
    with pytest.raises(ValueError, match="shard shape"):
        DistributedTensor(mesh, "S1R", (4, 4), {0: np.ones((4, 4)), 1: np.ones((2, 4))})


def test_distributed_tensor_missing_shard():
    c = Cluster(ClusterSpec(n_hosts=1, devices_per_host=2))
    mesh = DeviceMesh.from_hosts(c, [0])
    with pytest.raises(ValueError, match="missing"):
        DistributedTensor(mesh, "RR", (4, 4), {0: np.ones((4, 4))})


def test_distributed_tensor_allclose():
    c = Cluster(ClusterSpec(n_hosts=1, devices_per_host=2))
    mesh = DeviceMesh.from_hosts(c, [0])
    arr = np.arange(16.0).reshape(4, 4)
    a = DistributedTensor.from_global(mesh, "S0R", arr)
    b = DistributedTensor.from_global(mesh, "RS1", arr)
    assert a.allclose(b)
    assert a.allclose(arr)
    assert not a.allclose(arr + 1)


@pytest.mark.parametrize(
    "other",
    [
        lambda mesh: np.array(0.0),
        lambda mesh: np.zeros(4),
        lambda mesh: np.zeros((1, 4)),
        lambda mesh: DistributedTensor.from_global(mesh, "RR", np.zeros((1, 4))),
        lambda mesh: np.zeros((3, 3)),
    ],
    ids=["scalar", "row", "row-2d", "rr-tensor-row", "3x3"],
)
def test_distributed_tensor_is_close_only_to_its_own_shape(other):
    c = Cluster(ClusterSpec(n_hosts=1, devices_per_host=2))
    mesh = DeviceMesh.from_hosts(c, [0])
    zeros = DistributedTensor.from_global(mesh, "S0R", np.zeros((4, 4)))
    assert zeros.allclose(other(mesh)) is False


# ----------------------------------------------------------------------
# Replicas holding NaN agree; real disagreements still raise
# ----------------------------------------------------------------------
def _nan_meshes():
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=2))
    return DeviceMesh.from_hosts(c, [0, 1]), DeviceMesh.from_hosts(c, [2, 3])


def test_nan_replicas_agree():
    src, dst = _nan_meshes()
    nan = np.full((8, 8), np.nan, np.float32)
    assert np.isnan(DistributedTensor.from_global(src, "RR", nan).to_global()).all()
    task = ReshardingTask(nan.shape, src, "S0R", dst, "RS1")
    out = apply_plan(
        make_strategy("broadcast").plan(task),
        DistributedTensor.from_global(src, task.src_spec, nan),
    )
    assert np.isnan(out.to_global()).all()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_object_nan_replicas_agree(strategy):
    """Replicas of an object array hold the same objects, and an object
    matches itself as in a Python container, even a NaN."""
    src, dst = _nan_meshes()
    nan = float("nan")
    arr = np.full((4, 4), nan, dtype=object)
    out = reshard(arr, src, "S0R", dst, "RR", strategy=strategy, cache=None).dst_tensor
    assert all(x is nan for x in out.to_global().flat)
    assert all(x is nan for d in dst.devices for x in out.shards[d].flat)


def test_nan_delivered_twice_is_no_conflict():
    """A plan that delivers a NaN region twice to a device agrees with itself."""
    src, dst = _nan_meshes()
    nan = np.full((8, 8), np.nan, np.float32)
    task = ReshardingTask(nan.shape, src, "S0R", dst, "RR")
    plan = make_strategy("broadcast").plan(task)
    op = next(op for op in plan.ops if isinstance(op, BroadcastOp))
    plan.ops.append(dataclasses.replace(op, op_id=max(o.op_id for o in plan.ops) + 1))
    out = apply_plan(plan, DistributedTensor.from_global(src, task.src_spec, nan))
    assert np.isnan(out.to_global()).all()


def test_conflicting_delivery_names_the_device_and_box():
    src, dst = _nan_meshes()
    arr = np.arange(64, dtype=np.float32).reshape(8, 8)
    task = ReshardingTask(arr.shape, src, "S0R", dst, "RR")
    plan = make_strategy("broadcast").plan(task)
    op = next(op for op in plan.ops if isinstance(op, BroadcastOp))
    src_tensor = DistributedTensor.from_global(src, task.src_spec, arr)
    peer = next(
        d for d in src.devices
        if d != op.sender and src_tensor.device_region(d) == src_tensor.device_region(op.sender)
    )
    # the same region again from a replica that disagrees on one element
    plan.ops.append(
        dataclasses.replace(op, op_id=max(o.op_id for o in plan.ops) + 1, sender=peer)
    )
    src_tensor.shards[peer][op.region[0][0], op.region[1][0]] = -1.0
    with pytest.raises(
        DataPlaneError, match=rf"^device {op.receivers[0]}: conflicting data for {re.escape(str(op.region))}$"
    ):
        apply_plan(plan, src_tensor)


@pytest.mark.parametrize(
    "arr, bad",
    [
        (np.full((4, 4), np.nan, np.float32), 1.0),
        (np.ones((4, 4), np.float32), np.nan),
        (np.ones((4, 4), bool), False),
        (np.full((4, 4), "x", dtype=object), "y"),
    ],
)
def test_real_replica_disagreements_still_raise(arr, bad):
    src, _ = _nan_meshes()
    dt = DistributedTensor.from_global(src, "RR", arr)
    assert dt.to_global().tolist() == arr.tolist() or np.isnan(arr).all()
    dt.shards[3][1, 2] = bad
    with pytest.raises(
        ValueError, match=r"replica mismatch: device 3 disagrees on \(\(0, 4\), \(0, 4\)\)"
    ):
        dt.to_global()


def test_source_mesh_is_compared_by_content():
    task, _, arr = build("S0RR", "RS1R")
    plan = make_strategy("broadcast").plan(task)
    c = task.src_mesh.cluster
    equal = DeviceMesh.from_hosts(c, [0, 1])
    assert equal is not task.src_mesh
    out = apply_plan(plan, DistributedTensor.from_global(equal, task.src_spec, arr))
    assert np.array_equal(out.to_global(), arr)
    other = DeviceMesh.from_hosts(c, [1, 0])
    with pytest.raises(DataPlaneError, match="mesh does not match"):
        apply_plan(plan, DistributedTensor.from_global(other, task.src_spec, arr))


def test_allgather_skips_deps_that_are_not_scatters_of_its_region():
    task, src_tensor, arr = build("S0RR", "RS1R")
    plan = make_strategy("allgather").plan(task)
    gathers = [i for i, op in enumerate(plan.ops) if isinstance(op, AllGatherOp)]
    first, second = gathers[0], gathers[1]
    assert plan.ops[first].region != plan.ops[second].region
    # an earlier scatter of another region and a non-scatter op add no parts
    extra = (plan.ops[first].deps[0], plan.ops[first].op_id)
    plan.ops[second] = dataclasses.replace(
        plan.ops[second], deps=extra + plan.ops[second].deps
    )
    assert np.array_equal(apply_plan(plan, src_tensor).to_global(), arr)


def test_constructor_takes_the_dtype_from_the_shards_or_checks_it():
    c = Cluster(ClusterSpec(n_hosts=1, devices_per_host=2))
    mesh = DeviceMesh.from_hosts(c, [0])
    shards = {d: np.ones((4, 2), np.float32) for d in mesh.devices}
    assert DistributedTensor(mesh, "RS1", (4, 4), shards).dtype == np.float32
    assert DistributedTensor(mesh, "RS1", (4, 4), shards, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError, match="dtype float32 != tensor dtype float64"):
        DistributedTensor(mesh, "RS1", (4, 4), shards, dtype=np.float64)


def test_read_region_crops_an_inner_box():
    tile = np.arange(4 * 8).reshape(4, 8)  # the tile of ((10, 14), (4, 12))
    out = read_region(tile, ((10, 14), (4, 12)), ((11, 13), (6, 9)))
    assert np.array_equal(out, tile[1:3, 2:5])
    with pytest.raises(ValueError, match="not contained"):
        read_region(tile, ((10, 14), (4, 12)), ((11, 13), (6, 13)))
