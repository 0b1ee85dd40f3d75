"""Tests for the top-level reshard() API."""

import re

import numpy as np
import pytest

from repro import Cluster, ClusterSpec, DeviceMesh, reshard
from repro.core.task import ReshardingTask
from repro.strategies import make_strategy


@pytest.fixture
def meshes():
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    return (
        DeviceMesh.from_hosts(c, [0, 1]),
        DeviceMesh.from_hosts(c, [2, 3]),
    )


def test_reshard_with_array_moves_data(meshes):
    src, dst = meshes
    arr = np.arange(8 * 8 * 8, dtype=np.float32).reshape(8, 8, 8)
    r = reshard(arr, src, "S0RR", dst, "RS1R")
    assert r.dst_tensor is not None
    assert r.dst_tensor.allclose(arr)
    assert r.latency > 0
    assert r.cross_host_bytes > 0


def test_reshard_with_shape_is_timing_only(meshes):
    src, dst = meshes
    r = reshard((64, 64), src, "S0R", dst, "RS1")
    assert r.dst_tensor is None
    assert r.latency > 0


@pytest.mark.parametrize("value", [np.float32(3.0), np.int64(8), 8, None])
def test_reshard_refuses_a_value_that_is_neither_array_nor_shape(meshes, value):
    src, dst = meshes
    with pytest.raises(ValueError, match="tensor_or_shape"):
        reshard(value, src, "S0R", dst, "RS1")


def test_reshard_move_data_forced_without_array_fails(meshes):
    src, dst = meshes
    with pytest.raises(ValueError, match="array"):
        reshard((8, 8), src, "RR", dst, "RR", move_data=True)


def test_reshard_move_data_disabled(meshes):
    src, dst = meshes
    arr = np.ones((8, 8), dtype=np.float32)
    r = reshard(arr, src, "RR", dst, "RR", move_data=False)
    assert r.dst_tensor is None


def test_reshard_signal_strategy_skips_data(meshes):
    src, dst = meshes
    arr = np.ones((8, 8), dtype=np.float32)
    r = reshard(arr, src, "RR", dst, "RR", strategy="signal")
    assert r.dst_tensor is None
    assert not r.plan.data_complete


def test_reshard_strategy_kwargs(meshes):
    src, dst = meshes
    r = reshard((8, 8), src, "S0R", dst, "S0R", strategy="broadcast",
                scheduler="naive", n_chunks=3)
    assert all(op.n_chunks == 3 for op in r.plan.ops)
    assert r.plan.schedule.algorithm == "naive"


@pytest.mark.parametrize(
    "n_chunks", [float("inf"), float("nan"), 2.5, 4.0, "4", True, False, 0, -3]
)
def test_broadcast_rejects_a_chunk_count_that_is_not_a_positive_int(
    meshes, n_chunks
):
    src, dst = meshes
    with pytest.raises(ValueError, match=re.escape(repr(n_chunks))):
        reshard((8, 8), src, "S0R", dst, "S0R", strategy="broadcast",
                n_chunks=n_chunks, cache=None)


@pytest.mark.parametrize("n_chunks", [1, 3, np.int64(3)])
def test_broadcast_accepts_any_positive_integer_chunk_count(meshes, n_chunks):
    src, dst = meshes
    r = reshard((8, 8), src, "S0R", dst, "S0R", strategy="broadcast",
                n_chunks=n_chunks, cache=None)
    assert all(type(op.n_chunks) is int and op.n_chunks == n_chunks
               for op in r.plan.ops)


def test_strategy_plan_compile_only(meshes):
    src, dst = meshes
    plan = make_strategy("broadcast").plan(
        ReshardingTask((8, 8), src, "S0R", dst, "RS1")
    )
    assert plan.strategy == "broadcast"
    assert plan.ops


def test_reshard_moves_data_after_a_hit_from_another_cluster(meshes):
    # The plan cache is keyed by content, so a hit may carry a task built
    # on another, content-equal Cluster object.
    src, dst = meshes
    arr = np.arange(8 * 8 * 8, dtype=np.float32).reshape(8, 8, 8)
    first = reshard(arr, src, "S0RR", dst, "RS1R")
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src2, dst2 = DeviceMesh.from_hosts(c, [0, 1]), DeviceMesh.from_hosts(c, [2, 3])
    r = reshard(arr, src2, "S0RR", dst2, "RS1R")
    assert r.plan.ops is first.plan.ops
    assert r.task.src_mesh is src2 and r.dst_tensor.mesh is dst2
    assert r.dst_tensor.allclose(arr)


def test_reshard_dtype_from_array(meshes):
    src, dst = meshes
    arr = np.ones((8, 8), dtype=np.float16)
    r = reshard(arr, src, "RR", dst, "RR")
    assert r.task.dtype == np.float16
    assert r.dst_tensor.dtype == np.float16


def test_faster_strategy_is_faster(meshes):
    """The headline claim, via the public API: broadcast beats send/recv."""
    src, dst = meshes
    slow = reshard((1 << 22,), src, "R", dst, "R", strategy="send_recv")
    fast = reshard((1 << 22,), src, "R", dst, "R", strategy="broadcast")
    assert fast.latency < slow.latency
