"""Tests for intra-mesh resharding (layout conversion on one mesh)."""

import numpy as np
import pytest

from repro.core.intra import intra_mesh_reshard, plan_intra_mesh
from repro.core.mesh import DeviceMesh
from repro.sim.cluster import Cluster, ClusterSpec


@pytest.fixture
def mesh24():
    c = Cluster(ClusterSpec(n_hosts=2, devices_per_host=4))
    return DeviceMesh.from_hosts(c, [0, 1])


SPECS = ["RRR", "S0RR", "RS1R", "S01RR", "S0S1R", "RRS0"]


@pytest.mark.parametrize("src", SPECS)
@pytest.mark.parametrize("dst", SPECS)
def test_intra_mesh_data_correct(mesh24, src, dst):
    arr = np.arange(8 * 8 * 8, dtype=np.float32).reshape(8, 8, 8)
    r = intra_mesh_reshard(arr, mesh24, src, dst)
    assert r.dst_tensor is not None
    assert np.array_equal(r.dst_tensor.to_global(), arr)
    assert r.dst_tensor.spec == r.task.dst_spec


@pytest.mark.parametrize("value", [np.float32(3.0), 8])
def test_intra_mesh_refuses_a_value_that_is_neither_array_nor_shape(mesh24, value):
    with pytest.raises(ValueError, match="tensor_or_shape"):
        intra_mesh_reshard(value, mesh24, "S0R", "RS1")


def test_identity_conversion_is_free(mesh24):
    r = intra_mesh_reshard((8, 8, 8), mesh24, "S0RR", "S0RR")
    assert r.is_free
    assert r.latency == 0.0


def test_replicated_to_sharded_is_free(mesh24):
    """R -> S: every device already holds a superset of its new tile."""
    r = intra_mesh_reshard((8, 8, 8), mesh24, "RRR", "S0S1R")
    assert r.is_free


def test_sharded_to_replicated_costs_allgather_like(mesh24):
    """S0 -> R moves the other half to each host once (broadcast)."""
    arr_shape = (1 << 20, 2)  # 8 MiB fp32
    r = intra_mesh_reshard(arr_shape, mesh24, "S0R", "RR")
    assert not r.is_free
    # each host must receive the half it does not hold: tensor/2 x 2 dirs
    assert r.timing.bytes_cross_host == pytest.approx(
        (1 << 20) * 2 * 4, rel=0.01
    )


def test_axis_swap_cheaper_than_replication(mesh24):
    shape = (1 << 12, 1 << 10)
    swap = intra_mesh_reshard(shape, mesh24, "S0R", "RS1")
    repl = intra_mesh_reshard(shape, mesh24, "S0R", "RR")
    assert swap.latency <= repl.latency + 1e-12


def test_intra_host_conversion_uses_nvlink(mesh24):
    """S1 -> R along the intra-host axis never crosses the network."""
    r = intra_mesh_reshard((8, 1 << 16), mesh24, "RS1", "RR")
    assert not r.is_free
    assert r.timing.bytes_cross_host == 0.0
    assert r.timing.bytes_intra_host > 0.0


def test_plan_reuses_local_tiles(mesh24):
    """Receivers that hold their region locally are excluded from ops."""
    plan = plan_intra_mesh((8, 8), mesh24, "S0R", "S1R")
    for op in plan.ops:
        receivers = (
            (op.receiver,) if hasattr(op, "receiver") else tuple(op.receivers)
        )
        for d in receivers:
            holder = plan.task.src_grid.device_region(d)
            from repro.core.slices import region_intersection

            assert region_intersection(holder, op.region) != op.region


def test_uneven_intra_mesh(mesh24):
    arr = np.arange(9 * 7 * 5, dtype=np.float32).reshape(9, 7, 5)
    r = intra_mesh_reshard(arr, mesh24, "S0RR", "RS1R")
    assert np.array_equal(r.dst_tensor.to_global(), arr)
