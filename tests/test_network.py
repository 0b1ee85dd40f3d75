"""Unit tests for the flow-level network simulator."""

import random

import pytest

from repro.sim.cluster import GB, Cluster, ClusterSpec
from repro.sim.network import Network


def make_net(**kw) -> Network:
    defaults = dict(
        n_hosts=4,
        devices_per_host=4,
        inter_host_latency=0.0,
        intra_host_latency=0.0,
    )
    defaults.update(kw)
    return Network(Cluster(ClusterSpec(**defaults)))


def cross_t(net: Network, nbytes: float) -> float:
    return nbytes / net.cluster.spec.inter_host_bandwidth


def test_single_cross_host_flow_latency():
    net = make_net()
    done = []
    net.start_flow(0, 4, GB, lambda f: done.append(f))
    net.run()
    assert len(done) == 1
    assert done[0].finish_time == pytest.approx(cross_t(net, GB))


def test_intra_host_flow_uses_nvlink():
    net = make_net()
    f = net.start_flow(0, 1, GB)
    net.run()
    assert f.finish_time == pytest.approx(GB / net.cluster.spec.intra_host_bandwidth)


def test_startup_latency_added():
    net = make_net(inter_host_latency=0.01)
    f = net.start_flow(0, 4, GB)
    net.run()
    assert f.finish_time == pytest.approx(0.01 + cross_t(net, GB))


def test_two_flows_share_sender_nic():
    net = make_net()
    flows = [net.start_flow(0, 4, GB), net.start_flow(1, 8, GB)]
    # distinct sender devices, same host -> shared nic_send(0)
    net.run()
    for f in flows:
        assert f.finish_time == pytest.approx(2 * cross_t(net, GB))


def test_two_flows_distinct_hosts_full_rate():
    net = make_net()
    f1 = net.start_flow(0, 8, GB)
    f2 = net.start_flow(4, 12, GB)
    net.run()
    t = cross_t(net, GB)
    assert f1.finish_time == pytest.approx(t)
    assert f2.finish_time == pytest.approx(t)


def test_full_duplex_send_and_receive_concurrently():
    """A host can send at full rate while receiving at full rate."""
    net = make_net()
    f1 = net.start_flow(0, 4, GB)  # host0 sends
    f2 = net.start_flow(8, 1, GB)  # host0 receives
    net.run()
    t = cross_t(net, GB)
    assert f1.finish_time == pytest.approx(t)
    assert f2.finish_time == pytest.approx(t)


def test_receiver_nic_contention():
    net = make_net()
    f1 = net.start_flow(0, 8, GB)
    f2 = net.start_flow(4, 9, GB)  # both into host 2
    net.run()
    assert f1.finish_time == pytest.approx(2 * cross_t(net, GB))
    assert f2.finish_time == pytest.approx(2 * cross_t(net, GB))


def test_maxmin_reallocation_on_completion():
    """When a competing flow finishes, the survivor speeds up."""
    net = make_net()
    small = net.start_flow(0, 4, GB / 2)
    big = net.start_flow(1, 5, GB)
    net.run()
    t = cross_t(net, GB)
    # Shared sender NIC: both at half rate until small finishes at t
    # (0.5 GB at bw/2), then big runs at full rate for its remaining 0.5 GB.
    assert small.finish_time == pytest.approx(t)
    assert big.finish_time == pytest.approx(1.5 * t)


def test_zero_byte_flow_completes_after_latency():
    net = make_net(inter_host_latency=0.25)
    f = net.start_flow(0, 4, 0.0)
    net.run()
    assert f.finish_time == pytest.approx(0.25)


def test_flow_to_self_rejected():
    net = make_net()
    with pytest.raises(ValueError):
        net.start_flow(2, 2, 100)


def test_negative_bytes_rejected():
    net = make_net()
    with pytest.raises(ValueError):
        net.start_flow(0, 1, -5)


def test_traffic_accounting():
    net = make_net()
    net.start_flow(0, 4, 1000)
    net.start_flow(0, 1, 500)
    net.run()
    assert net.bytes_cross_host == pytest.approx(1000)
    assert net.bytes_intra_host == pytest.approx(500)


def test_trace_records():
    net = make_net()
    net.start_flow(0, 4, GB, tag="x")
    net.run()
    assert len(net.trace) == 1
    rec = net.trace[0]
    assert rec.tag == "x"
    assert rec.src == 0 and rec.dst == 4
    assert rec.duration == pytest.approx(cross_t(net, GB))


def test_callback_chaining_flows():
    """Completion callbacks can submit follow-up flows."""
    net = make_net()
    finish = []

    def second(_f):
        net.start_flow(4, 8, GB, lambda f: finish.append(f.finish_time))

    net.start_flow(0, 4, GB, second)
    net.run()
    assert finish == [pytest.approx(2 * cross_t(net, GB))]


def test_many_concurrent_flows_deterministic():
    def run_once():
        net = make_net()
        flows = [
            net.start_flow(s, d, GB / 8)
            for s in range(4)
            for d in range(8, 12)
        ]
        net.run()
        return [f.finish_time for f in flows]

    assert run_once() == run_once()


def test_intra_host_flows_dont_touch_nic():
    """Intra-host traffic should not slow cross-host traffic."""
    net = make_net()
    cross = net.start_flow(0, 4, GB)
    intra = net.start_flow(1, 2, GB)
    net.run()
    assert cross.finish_time == pytest.approx(cross_t(net, GB))
    assert intra.finish_time == pytest.approx(
        GB / net.cluster.spec.intra_host_bandwidth
    )


def test_windowed_program_pinned_end_to_end():
    """1,000 seeded flows in ~64-flow admission waves on an 8x4 cluster,
    through the default solver and the batched event loop: the telemetry
    digest, makespan and event count are pinned exactly."""
    rng = random.Random(7)
    net = Network(Cluster(ClusterSpec(n_hosts=8, devices_per_host=4)))
    n_dev = 32
    for i in range(1_000):
        src = rng.randrange(n_dev)
        dst = rng.randrange(n_dev)
        if src == dst:
            dst = (dst + 1) % n_dev
        net.start_flow(
            src,
            dst,
            rng.choice([1e4, 1e4, 2e5, 1e6]),
            extra_latency=(i // 64) * 2e-4,
            tag=f"f{i}",
        )
    assert net.run() == 0.03572399999999998
    assert net.loop.processed == 1665
    assert net.bus.digest() == (
        "af078b863e5b6742a0362334af528f879a13f646f9a8e7ce7237e95b0d9c8496"
    )
