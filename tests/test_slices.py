"""Unit and property tests for the slice algebra (tile grids, regions)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.mesh import DeviceMesh
from repro.core.slices import (
    TileGrid,
    region_intersection,
    region_shape,
    region_size,
    split_offsets,
)
from repro.core.spec import ShardingSpec
from repro.sim.cluster import Cluster, ClusterSpec


@pytest.fixture
def mesh24():
    c = Cluster(ClusterSpec(n_hosts=2, devices_per_host=4))
    return DeviceMesh.from_hosts(c, [0, 1])


# ----------------------------------------------------------------------
# split_offsets
# ----------------------------------------------------------------------
def test_split_even():
    assert split_offsets(8, 4) == (0, 2, 4, 6, 8)


def test_split_uneven_matches_numpy_array_split():
    offs = split_offsets(10, 3)
    assert offs == (0, 4, 7, 10)
    parts = np.array_split(np.arange(10), 3)
    assert [len(p) for p in parts] == [offs[i + 1] - offs[i] for i in range(3)]


def test_split_single():
    assert split_offsets(5, 1) == (0, 5)


def test_split_invalid():
    with pytest.raises(ValueError):
        split_offsets(2, 3)
    with pytest.raises(ValueError):
        split_offsets(2, 0)


@pytest.mark.parametrize("args, name", [((5.0, 2), "size"), ((5, 2.0), "n"), ((True, 1), "size")])
def test_split_refuses_a_non_integer(args, name):
    # split_offsets(5.0, 2) used to return the float offsets (0, 3.0, 5.0)
    with pytest.raises(ValueError, match=f"^{name} "):
        split_offsets(*args)


@given(st.integers(1, 100), st.integers(1, 10))
def test_split_property(size, n):
    if n > size:
        n = size
    offs = split_offsets(size, n)
    assert len(offs) == n + 1
    assert offs[0] == 0 and offs[-1] == size
    widths = [offs[i + 1] - offs[i] for i in range(n)]
    assert all(w > 0 for w in widths)
    assert max(widths) - min(widths) <= 1
    assert sorted(widths, reverse=True) == widths  # big parts first


# ----------------------------------------------------------------------
# regions
# ----------------------------------------------------------------------
def test_region_intersection_basic():
    a = ((0, 4), (0, 4))
    b = ((2, 6), (1, 3))
    assert region_intersection(a, b) == ((2, 4), (1, 3))


def test_region_intersection_empty():
    assert region_intersection(((0, 2),), ((2, 4),)) is None
    assert region_intersection(((0, 2), (0, 9)), ((0, 2), (9, 10))) is None


def test_region_intersection_rank_mismatch():
    with pytest.raises(ValueError):
        region_intersection(((0, 1),), ((0, 1), (0, 1)))


def test_region_size_and_shape():
    r = ((1, 4), (0, 2), (5, 6))
    assert region_shape(r) == (3, 2, 1)
    assert region_size(r) == 6


# ----------------------------------------------------------------------
# TileGrid
# ----------------------------------------------------------------------
def test_tile_grid_s0(mesh24):
    g = TileGrid((8, 6), ShardingSpec.parse("S0R"), mesh24)
    assert g.shards == (2, 1)
    assert g.tile_region((0, 0)) == ((0, 4), (0, 6))
    assert g.tile_region((1, 0)) == ((4, 8), (0, 6))


def test_tile_grid_device_mapping(mesh24):
    g = TileGrid((8, 8), ShardingSpec.parse("S0S1"), mesh24)
    # device (i, j) holds row-block i, col-block j
    assert g.device_tile_index(0) == (0, 0)
    assert g.device_tile_index(5) == (1, 1)  # device 5 = coords (1,1)
    assert g.device_region(5) == ((4, 8), (2, 4))


def test_tile_grid_s01_mixed_radix(mesh24):
    g = TileGrid((16,), ShardingSpec.parse("S01"), mesh24)
    # S^{01}: index = i * m2 + j
    assert g.device_tile_index(mesh24.device_at(0, 3)) == (3,)
    assert g.device_tile_index(mesh24.device_at(1, 0)) == (4,)


def test_tile_grid_s10_reversed_axes(mesh24):
    g = TileGrid((16,), ShardingSpec.parse("S10"), mesh24)
    # S^{10}: index = j * m1 + i
    assert g.device_tile_index(mesh24.device_at(1, 0)) == (1,)
    assert g.device_tile_index(mesh24.device_at(0, 3)) == (6,)


def test_tile_replicas(mesh24):
    g = TileGrid((8,), ShardingSpec.parse("S0"), mesh24)
    assert g.tile_replicas((0,)) == (0, 1, 2, 3)
    assert g.tile_replicas((1,)) == (4, 5, 6, 7)


def test_tile_replicas_full_replication(mesh24):
    g = TileGrid((8,), ShardingSpec.parse("R"), mesh24)
    assert g.tile_replicas((0,)) == tuple(range(8))


def test_tile_replicas_unknown_tile(mesh24):
    g = TileGrid((8,), ShardingSpec.parse("S0"), mesh24)
    with pytest.raises(IndexError):
        g.tile_region((2,))


def test_all_tile_indices(mesh24):
    g = TileGrid((8, 8), ShardingSpec.parse("S0S1"), mesh24)
    assert list(g.all_tile_indices()) == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)
    ]


def test_uneven_grid(mesh24):
    g = TileGrid((10,), ShardingSpec.parse("S1"), mesh24)
    widths = [
        g.tile_region((k,))[0][1] - g.tile_region((k,))[0][0] for k in range(4)
    ]
    assert widths == [3, 3, 2, 2]


# ----------------------------------------------------------------------
# Properties: tiles partition the tensor; replicas partition the mesh
# ----------------------------------------------------------------------
SPECS_3D = ["RRR", "S0RR", "RS1R", "S01RR", "S0S1R", "RS10R", "RRS0", "S1RS0"]


@pytest.mark.parametrize("spec", SPECS_3D)
def test_tiles_partition_tensor(mesh24, spec):
    shape = (8, 8, 8)
    g = TileGrid(shape, ShardingSpec.parse(spec), mesh24)
    covered = np.zeros(shape, dtype=int)
    for idx in g.all_tile_indices():
        r = g.tile_region(idx)
        covered[tuple(slice(lo, hi) for lo, hi in r)] += 1
    assert (covered == 1).all()


@pytest.mark.parametrize("spec", SPECS_3D)
def test_replica_sets_partition_devices(mesh24, spec):
    g = TileGrid((8, 8, 8), ShardingSpec.parse(spec), mesh24)
    seen = []
    for idx in g.all_tile_indices():
        seen.extend(g.tile_replicas(idx))
    assert sorted(seen) == sorted(mesh24.devices)


@pytest.mark.parametrize("spec", SPECS_3D)
def test_device_tile_consistency(mesh24, spec):
    """Every device's tile index lists the device among its replicas."""
    g = TileGrid((8, 8, 8), ShardingSpec.parse(spec), mesh24)
    for d in mesh24.devices:
        assert d in g.tile_replicas(g.device_tile_index(d))
