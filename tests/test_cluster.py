"""Unit tests for the cluster topology model."""

import pytest

from repro.sim.cluster import GB, GBPS, Cluster, ClusterSpec


def test_default_spec_matches_paper_testbed():
    spec = ClusterSpec()
    assert spec.devices_per_host == 4  # p3.8xlarge
    assert spec.inter_host_bandwidth == pytest.approx(10 * GBPS)  # 10 Gbps
    assert spec.intra_host_bandwidth > spec.inter_host_bandwidth


def test_gbps_constant():
    assert GBPS == pytest.approx(1.25e8)
    assert GB == 2**30


def test_device_enumeration():
    c = Cluster(ClusterSpec(n_hosts=3, devices_per_host=2))
    assert c.n_devices == 6
    assert c.n_hosts == 3
    assert [d.device_id for d in c.devices] == list(range(6))
    assert [d.host_id for d in c.devices] == [0, 0, 1, 1, 2, 2]
    assert [d.local_id for d in c.devices] == [0, 1, 0, 1, 0, 1]


def test_host_of_and_same_host():
    c = Cluster(ClusterSpec(n_hosts=2, devices_per_host=4))
    assert c.host_of(0) == 0
    assert c.host_of(5) == 1
    assert c.same_host(0, 3)
    assert not c.same_host(3, 4)


def test_hosts_of_set():
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    assert c.hosts_of([0, 1, 4, 13]) == {0, 1, 3}


def test_unknown_device_raises():
    c = Cluster(ClusterSpec(n_hosts=1, devices_per_host=2))
    with pytest.raises(KeyError):
        c.device(2)
    with pytest.raises(KeyError):
        c.host_of(-1)


def test_link_bandwidth_intra_vs_inter():
    spec = ClusterSpec(n_hosts=2, devices_per_host=2)
    c = Cluster(spec)
    assert c.link_bandwidth(0, 1) == spec.intra_host_bandwidth
    assert c.link_bandwidth(0, 2) == spec.inter_host_bandwidth
    assert c.link_latency(0, 1) == spec.intra_host_latency
    assert c.link_latency(0, 2) == spec.inter_host_latency


def test_self_link_rejected():
    c = Cluster(ClusterSpec())
    with pytest.raises(ValueError):
        c.link_bandwidth(0, 0)
    with pytest.raises(ValueError):
        c.link_latency(3, 3)


@pytest.mark.parametrize(
    "kw",
    [
        {"n_hosts": 0},
        {"devices_per_host": 0},
        {"inter_host_bandwidth": 0},
        {"intra_host_bandwidth": -1},
        {"inter_host_latency": -0.1},
    ],
)
def test_invalid_spec_rejected(kw):
    with pytest.raises(ValueError):
        ClusterSpec(**kw)


def test_spec_n_devices():
    assert ClusterSpec(n_hosts=3, devices_per_host=4).n_devices == 12


def test_host_device_cross_reference():
    c = Cluster(ClusterSpec(n_hosts=2, devices_per_host=3))
    for host in c.hosts:
        for dev in host.devices:
            assert dev.host_id == host.host_id
            assert c.device(dev.device_id) is dev


@pytest.mark.parametrize(
    "field",
    ["inter_host_bandwidth", "intra_host_bandwidth",
     "inter_host_latency", "intra_host_latency"],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_spec_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        ClusterSpec(**{field: value})
