"""Tests for the ring collectives (reduce-scatter, all-reduce)."""

import pytest

from repro.sim.cluster import GB, Cluster, ClusterSpec
from repro.sim.collectives import all_reduce, reduce_scatter
from repro.sim.network import Network
from repro.sim.primitives import ring_order


def make_net(n_hosts=4, dph=2) -> Network:
    return Network(
        Cluster(
            ClusterSpec(
                n_hosts=n_hosts,
                devices_per_host=dph,
                inter_host_latency=0.0,
                intra_host_latency=0.0,
            )
        )
    )


# Ring grid: N = 2-8 devices on one host (NVLink ring) or on N hosts
# (NIC ring), three sizes, zero latency.  Every hop is alone on its
# ports, so the simulated time is the closed form up to rounding.
RING_GRID = [
    (n, n_hosts, dph, size)
    for n in range(2, 9)
    for n_hosts, dph in ((1, n), (n, 1))
    for size in (1e6, GB, 3 * GB + 7)
]


def ring_bandwidth(net: Network, n_hosts: int) -> float:
    spec = net.cluster.spec
    return spec.intra_host_bandwidth if n_hosts == 1 else spec.inter_host_bandwidth


def test_reduce_scatter_time():
    """Ring reduce-scatter takes (N-1)/N * S/B."""
    for n, n_hosts, dph, size in RING_GRID:
        net = make_net(n_hosts=n_hosts, dph=dph)
        h = reduce_scatter(net, list(range(n)), size)
        net.run()
        expect = (n - 1) / n * size / ring_bandwidth(net, n_hosts)
        assert h.finish_time == pytest.approx(expect, rel=1e-12), (n, n_hosts, size)
        assert h.done


def test_all_reduce_is_two_phases():
    """Ring all-reduce = reduce-scatter + all-gather: 2(N-1)/N * S/B."""
    for n, n_hosts, dph, size in RING_GRID:
        net = make_net(n_hosts=n_hosts, dph=dph)
        h = all_reduce(net, list(range(n)), size)
        net.run()
        expect = 2 * (n - 1) / n * size / ring_bandwidth(net, n_hosts)
        assert h.finish_time == pytest.approx(expect, rel=1e-12), (n, n_hosts, size)
        assert h.done


def test_all_reduce_degenerate():
    net = make_net()
    assert all_reduce(net, [5], GB).done


def test_all_reduce_host_grouped_ring_faster():
    """Host-grouping the ring reduces cross-host rounds."""
    net1 = make_net(n_hosts=2, dph=2)
    bad = all_reduce(net1, [0, 2, 1, 3], GB)  # alternating hosts
    net1.run()
    net2 = make_net(n_hosts=2, dph=2)
    good = all_reduce(net2, ring_order(net2.cluster, 0, [0, 1, 2, 3]), GB)
    net2.run()
    assert good.finish_time < bad.finish_time
