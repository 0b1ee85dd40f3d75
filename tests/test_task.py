"""Tests for ReshardingTask decomposition (paper §2.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mesh import DeviceMesh
from repro.core.slices import region_intersection, region_size
from repro.core.task import ReshardingTask
from repro.sim.cluster import Cluster, ClusterSpec


def make_task(src_spec, dst_spec, shape=(8, 8, 8), dtype=np.float32,
              src_shape=(2, 4), dst_shape=(2, 4)):
    c = Cluster(ClusterSpec(n_hosts=src_shape[0] + dst_shape[0],
                            devices_per_host=max(src_shape[1], dst_shape[1])))
    src = DeviceMesh.from_hosts(c, range(src_shape[0]), src_shape[1])
    dst = DeviceMesh.from_hosts(
        c, range(src_shape[0], src_shape[0] + dst_shape[0]), dst_shape[1]
    )
    return ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=dtype)


def test_overlapping_meshes_rejected():
    c = Cluster(ClusterSpec(n_hosts=2, devices_per_host=4))
    a = DeviceMesh.from_hosts(c, [0, 1])
    b = DeviceMesh.from_hosts(c, [1])
    with pytest.raises(ValueError, match="disjoint"):
        ReshardingTask((8,), a, "S0", b, "R")


def test_total_nbytes():
    t = make_task("RRR", "RRR", shape=(4, 4, 4), dtype=np.float16)
    assert t.total_nbytes == 64 * 2


def test_figure2_task1():
    """Fig. 2 Task 1: S^{01}R on (2,2) -> S^0R on (2,2): 4 slices."""
    t = make_task("S01R", "S0R", shape=(4, 4), src_shape=(2, 2), dst_shape=(2, 2))
    slices = t.unit_tasks("slice")
    assert len(slices) == 4
    # first slice (rows 0) goes to the dst devices holding row-block 0,
    # which are replicated across the dst mesh's second axis
    first = slices[0]
    assert len(first.senders) == 1
    assert len(first.receivers) == 2


def test_figure2_task2_slice_granularity():
    """Fig. 2 Task 2: S^0R on (2,2) -> S^0S^1 on (2,2): 2 unit tasks."""
    t = make_task("S0R", "S0S1", shape=(4, 4), src_shape=(2, 2), dst_shape=(2, 2))
    slices = t.unit_tasks("slice")
    assert len(slices) == 2
    # each source slice is needed (in part) by 2 destination devices
    assert all(len(ut.receivers) == 2 for ut in slices)
    # and held by 2 replicas on the source mesh
    assert all(len(ut.senders) == 2 for ut in slices)


def test_case4_intersection_count():
    """Table 2 case 4 has 64 unit communication tasks (§5.1.2)."""
    t = make_task("RS01R", "S01RR", shape=(1024, 1024, 8))
    assert len(t.unit_tasks("intersection")) == 64
    assert len(t.unit_tasks("slice")) == 8


def test_case8_single_unit_task():
    """Table 2 case 8: replicated -> replicated is one broadcast."""
    t = make_task("RRR", "RRR", src_shape=(2, 3), dst_shape=(3, 2))
    tasks = t.unit_tasks("intersection")
    assert len(tasks) == 1
    assert set(tasks[0].senders) == set(t.src_mesh.devices)
    assert set(tasks[0].receivers) == set(t.dst_mesh.devices)


def test_unknown_granularity():
    t = make_task("RRR", "RRR")
    with pytest.raises(ValueError, match="granularity"):
        t.unit_tasks("bogus")


def test_unit_tasks_cached():
    t = make_task("S0RR", "S0RR")
    assert t.unit_tasks() is t.unit_tasks()
    assert t.unit_tasks("slice") is t.unit_tasks("slice")


def test_host_level_views():
    t = make_task("S0RR", "S0RR")
    ut = t.unit_tasks()[0]
    assert t.sender_hosts(ut) == frozenset({0})
    assert t.receiver_hosts(ut) == frozenset({2})
    assert t.senders_on_host(ut, 0) == ut.senders
    assert t.senders_on_host(ut, 1) == ()


def test_intersections_match_unit_tasks():
    t = make_task("RS0R", "S0RR")
    inter = t.intersections()
    units = t.unit_tasks("intersection")
    assert len(inter) == len(units)
    for tr, ut in zip(inter, units):
        assert tr.region == ut.region
        assert tr.senders == ut.senders
        assert tr.receivers == ut.receivers


SPEC_PAIRS = [
    ("S0RR", "S0RR"),
    ("RRR", "S0RR"),
    ("RS0R", "S0RR"),
    ("RS01R", "S01RR"),
    ("S1RR", "S0RR"),
    ("S1RR", "RRR"),
    ("RS0R", "RRS0"),
    ("S0S1R", "RS10R"),
]


@pytest.mark.parametrize("granularity", ["intersection", "slice"])
@pytest.mark.parametrize("src_spec,dst_spec", SPEC_PAIRS)
def test_unit_tasks_cover_every_destination_need(src_spec, dst_spec, granularity):
    """Every byte a destination device needs is promised by some task."""
    t = make_task(src_spec, dst_spec)
    tasks = t.unit_tasks(granularity)
    for d in t.dst_mesh.devices:
        want = t.dst_grid.device_region(d)
        covered = np.zeros(tuple(hi - lo for lo, hi in want), dtype=int)
        for ut in tasks:
            if d not in ut.receivers:
                continue
            inter = region_intersection(ut.region, want)
            if inter is None:
                continue
            sl = tuple(
                slice(i0 - w0, i1 - w0) for (i0, i1), (w0, _) in zip(inter, want)
            )
            covered[sl] += 1
        assert (covered >= 1).all(), f"device {d} missing data"


@pytest.mark.parametrize("src_spec,dst_spec", SPEC_PAIRS)
def test_intersection_tasks_total_bytes_equals_tensor(src_spec, dst_spec):
    """At intersection granularity the unit task regions tile D exactly."""
    t = make_task(src_spec, dst_spec)
    total = sum(region_size(ut.region) for ut in t.unit_tasks("intersection"))
    # each dst tile is disjoint; summing over them covers D once per dst
    # replica *group* (not per device), i.e. exactly once
    assert total == 8 * 8 * 8


@pytest.mark.parametrize("src_spec,dst_spec", SPEC_PAIRS)
def test_senders_hold_their_region(src_spec, dst_spec):
    t = make_task(src_spec, dst_spec)
    for ut in t.unit_tasks("intersection"):
        for s in ut.senders:
            holder = t.src_grid.device_region(s)
            assert region_intersection(holder, ut.region) == ut.region


@settings(max_examples=25, deadline=None)
@given(
    src_spec=st.sampled_from(["RRR", "S0RR", "RS1R", "S01RR", "S0S1R", "RRS0"]),
    dst_spec=st.sampled_from(["RRR", "S0RR", "RS1R", "S01RR", "S0S1R", "RRS0"]),
    d0=st.integers(8, 17),
    d1=st.integers(8, 17),
)
def test_property_decomposition_invariants(src_spec, dst_spec, d0, d1):
    t = make_task(src_spec, dst_spec, shape=(d0, d1, 8))
    tasks = t.unit_tasks("intersection")
    # total region bytes = tensor bytes (lower bound argument of §2.2)
    assert sum(region_size(u.region) for u in tasks) == d0 * d1 * 8
    for u in tasks:
        assert u.senders and u.receivers
        assert set(u.senders) <= set(t.src_mesh.devices)
        assert set(u.receivers) <= set(t.dst_mesh.devices)
        assert u.nbytes == region_size(u.region) * 4


@pytest.mark.parametrize("bad", [8.5, 8.0, "8", True, None])
def test_non_integer_shape_entries_rejected(bad):
    c = Cluster(ClusterSpec(n_hosts=2, devices_per_host=4))
    src, dst = DeviceMesh.from_hosts(c, [0]), DeviceMesh.from_hosts(c, [1])
    with pytest.raises(ValueError, match="integers"):
        ReshardingTask((bad, 8), src, "RR", dst, "RR")


def test_numpy_integer_shape_entries_accepted():
    c = Cluster(ClusterSpec(n_hosts=2, devices_per_host=4))
    src, dst = DeviceMesh.from_hosts(c, [0]), DeviceMesh.from_hosts(c, [1])
    t = ReshardingTask((np.int64(8), np.int32(4)), src, "RR", dst, "RR")
    assert t.shape == (8, 4)
    assert all(type(s) is int for s in t.shape)
