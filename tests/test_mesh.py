"""Unit tests for DeviceMesh."""

import pytest

from repro.core.mesh import DeviceMesh
from repro.sim.cluster import Cluster, ClusterSpec


@pytest.fixture
def cluster():
    return Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))


def test_from_hosts_default_shape(cluster):
    m = DeviceMesh.from_hosts(cluster, [0, 1])
    assert m.shape == (2, 4)
    assert m.devices == (0, 1, 2, 3, 4, 5, 6, 7)
    assert m.hosts == (0, 1)


def test_from_hosts_partial_devices(cluster):
    m = DeviceMesh.from_hosts(cluster, [2, 3], devices_per_host=2)
    assert m.shape == (2, 2)
    assert m.devices == (8, 9, 12, 13)


def test_explicit_grid(cluster):
    m = DeviceMesh(cluster, [[0, 1], [2, 3]])
    assert m.shape == (2, 2)
    assert m.device_at(1, 0) == 2
    assert m.coords_of(3) == (1, 1)


def test_duplicate_devices_rejected(cluster):
    with pytest.raises(ValueError, match="duplicate"):
        DeviceMesh(cluster, [[0, 1], [1, 2]])


def test_ragged_grid_rejected(cluster):
    with pytest.raises(ValueError, match="equal length"):
        DeviceMesh(cluster, [[0, 1], [2]])


def test_empty_grid_rejected(cluster):
    with pytest.raises(ValueError):
        DeviceMesh(cluster, [])
    with pytest.raises(ValueError):
        DeviceMesh(cluster, [[]])


def test_unknown_device_rejected(cluster):
    with pytest.raises(KeyError):
        DeviceMesh(cluster, [[0, 99]])


def test_coords_unknown_device(cluster):
    m = DeviceMesh(cluster, [[0, 1]])
    with pytest.raises(KeyError):
        m.coords_of(5)


def test_disjoint_from(cluster):
    a = DeviceMesh.from_hosts(cluster, [0, 1])
    b = DeviceMesh.from_hosts(cluster, [2, 3])
    c = DeviceMesh.from_hosts(cluster, [1, 2])
    assert a.disjoint_from(b)
    assert not a.disjoint_from(c)


def test_mesh_spanning_hosts_partially(cluster):
    """A mesh row need not align with a host (2,2 on one host)."""
    m = DeviceMesh(cluster, [[0, 1], [2, 3]])
    assert m.hosts == (0,)


def test_equality_and_hash(cluster):
    a = DeviceMesh(cluster, [[0, 1]])
    b = DeviceMesh(cluster, [[0, 1]])
    c = DeviceMesh(cluster, [[1, 0]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_n_devices(cluster):
    assert DeviceMesh.from_hosts(cluster, [0, 1, 2]).n_devices == 12


def test_from_hosts_validation(cluster):
    with pytest.raises(ValueError):
        DeviceMesh.from_hosts(cluster, [])
    with pytest.raises(ValueError):
        DeviceMesh.from_hosts(cluster, [0], devices_per_host=5)
    with pytest.raises(ValueError):
        DeviceMesh.from_hosts(cluster, [0], devices_per_host=0)


@pytest.mark.parametrize("host", [4, 9, -1])
def test_from_hosts_unknown_host_rejected(cluster, host):
    with pytest.raises(ValueError, match=r"valid: 0\.\.3"):
        DeviceMesh.from_hosts(cluster, (0, host))
