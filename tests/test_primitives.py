"""Unit tests for the timed collective primitives (paper §3.1 strategies)."""

import pytest

from repro.sim.analysis import (
    latency_broadcast,
    latency_local_allgather,
    latency_send_recv,
)
from repro.sim.cluster import GB, Cluster, ClusterSpec
from repro.sim.collectives import all_reduce, reduce_scatter
from repro.sim.network import Network
from repro.sim.primitives import (
    p2p,
    ring_allgather,
    ring_broadcast,
    ring_order,
    scatter,
    split_chunks,
    switch_multicast,
)
from repro.sim.topology import FatTreeTopology


def make_net(n_hosts=5, dph=4) -> Network:
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


def t_of(net, nbytes=GB):
    return nbytes / net.cluster.spec.inter_host_bandwidth


# ----------------------------------------------------------------------
# ring_order
# ----------------------------------------------------------------------
def test_ring_order_groups_by_host():
    net = make_net()
    c = net.cluster
    order = ring_order(c, 0, [17, 5, 4, 1, 16])
    # root host (0) first, then host 1, then host 4
    assert order == [1, 4, 5, 16, 17]


def test_ring_order_visits_each_host_once():
    net = make_net()
    c = net.cluster
    order = ring_order(c, 8, [0, 1, 12, 13, 4, 5])
    hosts = [c.host_of(d) for d in order]
    # consecutive duplicates collapse to one visit per host
    visits = [h for i, h in enumerate(hosts) if i == 0 or hosts[i - 1] != h]
    assert len(visits) == len(set(visits))


def test_split_chunks_sums_to_total():
    chunks = split_chunks(1000.0, 7)
    assert len(chunks) == 7
    assert sum(chunks) == pytest.approx(1000.0)


def test_split_chunks_invalid():
    with pytest.raises(ValueError):
        split_chunks(100.0, 0)


# ----------------------------------------------------------------------
# p2p / scatter
# ----------------------------------------------------------------------
def test_p2p_latency():
    net = make_net()
    h = p2p(net, 0, 4, GB)
    net.run()
    assert h.done
    assert h.finish_time == pytest.approx(t_of(net))


def test_scatter_splits_evenly():
    net = make_net()
    h = scatter(net, 0, [4, 5, 8, 9], GB)
    net.run()
    # total GB out of one NIC
    assert h.finish_time == pytest.approx(t_of(net))
    assert net.bytes_cross_host == pytest.approx(GB)


def test_scatter_excludes_root():
    net = make_net()
    h = scatter(net, 0, [0, 4], GB)
    net.run()
    # only the non-root receiver gets a part (half the payload)
    assert net.bytes_cross_host == pytest.approx(GB / 2)
    assert h.done


def test_scatter_empty_receivers_is_noop():
    net = make_net()
    h = scatter(net, 0, [0], GB)
    assert h.done
    assert h.finish_time == pytest.approx(0.0)


# ----------------------------------------------------------------------
# ring all-gather
# ----------------------------------------------------------------------
def test_local_allgather_time():
    net = make_net()
    shard = GB / 4
    h = ring_allgather(net, [0, 1, 2, 3], shard)
    net.run()
    expect = 3 * shard / net.cluster.spec.intra_host_bandwidth
    assert h.finish_time == pytest.approx(expect)


def test_global_allgather_crosses_hosts():
    net = make_net()
    devs = ring_order(net.cluster, 0, [0, 1, 4, 5])
    shard = GB / 4
    h = ring_allgather(net, devs, shard)
    net.run()
    # 3 rounds, each bounded by one cross-host shard transfer
    assert h.finish_time == pytest.approx(3 * shard / net.cluster.spec.inter_host_bandwidth)


def test_allgather_single_device_noop():
    net = make_net()
    h = ring_allgather(net, [3], GB)
    assert h.done and h.finish_time == pytest.approx(0.0)


def test_allgather_flow_count():
    net = make_net()
    h = ring_allgather(net, [0, 1, 2], 100.0)
    net.run()
    # N * (N-1) flows
    assert sum(1 for s in net.bus.spans if s.cat == "flow") == 6
    assert h.n_done == 6


# ----------------------------------------------------------------------
# ring broadcast
# ----------------------------------------------------------------------
def test_broadcast_single_receiver_equals_p2p():
    net = make_net()
    h = ring_broadcast(net, 0, [4], GB, n_chunks=16)
    net.run()
    assert h.finish_time == pytest.approx(t_of(net), rel=1e-6)


def test_broadcast_pipelining_beats_sequential():
    """t + A t/K for A receiving hosts, not A t."""
    net = make_net()
    recv = [4, 8, 12, 16]  # 4 hosts, 1 device each
    k = 32
    h = ring_broadcast(net, 0, recv, GB, n_chunks=k)
    net.run()
    t = t_of(net)
    analytic = latency_broadcast(4, 1, t, k)
    assert h.finish_time == pytest.approx(analytic, rel=0.05)
    assert h.finish_time < latency_local_allgather(4, 1, t)


def test_broadcast_cross_traffic_is_one_copy_per_host():
    net = make_net()
    recv = [4, 5, 8, 9]  # two receiving hosts, 2 devices each
    h = ring_broadcast(net, 0, recv, GB, n_chunks=8)
    net.run()
    assert h.done
    # each receiving host pulls exactly one copy across the network
    assert net.bytes_cross_host == pytest.approx(2 * GB)


def test_broadcast_empty_receivers_noop():
    net = make_net()
    h = ring_broadcast(net, 0, [], GB)
    assert h.done and h.finish_time == pytest.approx(0.0)


def test_broadcast_dedups_root_in_receivers():
    net = make_net()
    ring_broadcast(net, 0, [0, 4], GB, n_chunks=4)
    net.run()
    assert net.bytes_cross_host == pytest.approx(GB)


def test_broadcast_more_chunks_lower_latency():
    lat = {}
    for k in (1, 4, 64):
        net = make_net()
        h = ring_broadcast(net, 0, [4, 8, 12], GB, n_chunks=k)
        net.run()
        lat[k] = h.finish_time
    assert lat[64] < lat[4] < lat[1]


def test_send_recv_analysis_match():
    """A x B independent p2p sends cost A*B*t out of one NIC."""
    net = make_net()
    recv = [4, 5, 8, 9, 12, 13]
    handles = [p2p(net, 0, d, GB) for d in recv]
    net.run()
    t = t_of(net)
    assert max(h.finish_time for h in handles) == pytest.approx(
        latency_send_recv(3, 2, t)
    )


def test_collective_handle_callback_fires_once():
    net = make_net()
    calls = []
    h = p2p(net, 0, 4, 100.0)
    h.add_done_callback(lambda x: calls.append(x))
    net.run()
    assert calls == [h]
    # late registration fires immediately
    h.add_done_callback(lambda x: calls.append("late"))
    assert calls == [h, "late"]


# ----------------------------------------------------------------------
# Every flow enters through Network.start_flow
# ----------------------------------------------------------------------
def _multicast(net):
    return switch_multicast(net, 0, [2, 3, 4, 6], 4096.0, switch="spine", n_chunks=3)


@pytest.mark.parametrize(
    "launch",
    [
        lambda net: p2p(net, 0, 4, 4096.0),
        lambda net: scatter(net, 0, [1, 4, 5, 6], 4096.0),
        lambda net: ring_allgather(net, [0, 1, 2, 3, 4, 5, 6, 7], 512.0),
        lambda net: ring_broadcast(net, 0, [1, 2, 3, 4, 5, 6], 4096.0, n_chunks=5),
        _multicast,
        lambda net: reduce_scatter(net, [0, 1, 2, 3, 4, 5], 4096.0),
        lambda net: all_reduce(net, [0, 1, 2, 3, 4, 5], 4096.0),
    ],
    ids=["p2p", "scatter", "ring_allgather", "ring_broadcast", "switch_multicast",
         "reduce_scatter", "all_reduce"],
)
def test_every_flow_enters_through_start_flow(launch, monkeypatch):
    net = Network(
        Cluster(
            ClusterSpec(
                n_hosts=4,
                devices_per_host=2,
                topology=FatTreeTopology(hosts_per_leaf=2, oversubscription=2.0),
            )
        )
    )
    calls = []
    start_flow = Network.start_flow

    def spy(self, *args, **kwargs):
        calls.append(args)
        return start_flow(self, *args, **kwargs)

    monkeypatch.setattr(Network, "start_flow", spy)
    handle = launch(net)
    net.run()
    assert handle.done and not handle.failed
    n_spans = sum(1 for row in net.bus.span_rows if row[1] == "flow")
    assert len(calls) == n_spans == net._next_id > 0


# ----------------------------------------------------------------------
# Defaults, zero-byte collectives and the switch multicast's tree
# ----------------------------------------------------------------------
def make_fat_tree(**kw) -> Network:
    return Network(
        Cluster(
            ClusterSpec(
                n_hosts=4,
                devices_per_host=2,
                topology=FatTreeTopology(hosts_per_leaf=2, oversubscription=2.0),
                **kw,
            )
        )
    )


def test_default_chunk_counts():
    # The paper's K ~ 100 ring broadcast pipelines 64 chunks; the switch
    # multicast pipelines 16 (one up leg and one down leg per chunk).
    assert ring_broadcast(make_net(), 0, [4, 8], GB).n_total == 64 * 2
    assert switch_multicast(make_fat_tree(), 0, [2], GB, switch="spine").n_total == 16 + 16


@pytest.mark.parametrize(
    "launch",
    [
        lambda net: ring_allgather(net, [0, 4], 0.0),
        lambda net: ring_broadcast(net, 0, [4], 0.0),
        lambda net: switch_multicast(net, 0, [2], 0.0, switch="spine"),
    ],
    ids=["ring_allgather", "ring_broadcast", "switch_multicast"],
)
def test_zero_byte_collective_starts_no_flow(launch):
    net = make_fat_tree(inter_host_latency=1e-3)
    h = launch(net)
    assert h.done and h.finish_time == 0.0 and h.n_total == 0
    assert net._next_id == 0 and net.run() == 0.0


@pytest.mark.parametrize(
    "launch,cross_bytes",
    [
        (lambda net: ring_allgather(net, [0, 2], 1.0), 2.0),
        (lambda net: ring_broadcast(net, 0, [2], 1.0, n_chunks=1), 1.0),
        # the up leg and the down leg each book the byte
        (lambda net: switch_multicast(net, 0, [2], 1.0, switch="spine", n_chunks=1), 2.0),
    ],
    ids=["ring_allgather", "ring_broadcast", "switch_multicast"],
)
def test_one_byte_collective_moves_its_byte(launch, cross_bytes):
    net = make_fat_tree()
    h = launch(net)
    net.run()
    assert h.done and net.bytes_cross_host == cross_bytes


def test_handle_finished_at_time_zero_fires_once():
    # Aborted at t = 0 while its flows still run: their completions must
    # neither fire the callbacks again nor move the finish time.
    net = make_net()
    h = scatter(net, 0, [4, 8], GB)
    calls = []
    h.add_done_callback(calls.append)
    h.abort("stopped")
    assert net.run() > 0.0
    assert calls == [h] and h.failed and h.finish_time == 0.0
    assert h.n_done == h.n_total == 2


def test_multicast_heads_are_each_hosts_lowest_device():
    # Hosts 1 and 2 receive on devices (2, 3) and (4, 5): each host's
    # down legs land on its lowest device, which fans out to the other;
    # every up leg is booked to the first receiving host's head.
    net = make_fat_tree()
    switch_multicast(net, 0, [3, 2, 5, 4], 4096.0, switch="spine", n_chunks=2)
    net.run()
    legs = {row[7]["tag"]: (row[7]["src"], row[7]["dst"]) for row in net.bus.span_rows}
    assert legs == {
        "multicast:c0u": (0, 2), "multicast:c1u": (0, 2),
        "multicast:c0h1": (0, 2), "multicast:c1h1": (0, 2),
        "multicast:c0h2": (0, 4), "multicast:c1h2": (0, 4),
        "multicast:fan3": (2, 3), "multicast:fan5": (4, 5),
    }


def test_multicast_completes_with_its_last_fan_out():
    net = make_fat_tree()
    h = switch_multicast(net, 0, [2, 3, 4, 5], 4096.0, switch="spine", n_chunks=2)
    net.run()
    finishes = [row[4] for row in net.bus.span_rows]
    assert h.n_done == h.n_total == len(finishes) == 8
    assert h.finish_time == max(finishes)


def test_multicast_down_legs_chain_when_slower_than_up_legs():
    # The receiving host's NIC runs at a quarter rate, so each down leg
    # ends after the next chunk's up leg: only the down leg's own
    # completion can start the next down leg.
    net = make_fat_tree(
        inter_host_latency=0.0, host_bandwidth_overrides=((1, 0.25 * 1.25e9),)
    )
    h = switch_multicast(net, 0, [2], 4096.0, switch="spine", n_chunks=4)
    net.run()
    assert h.done and not h.failed and h.n_done == h.n_total == 8
    finish = {row[7]["tag"]: row[4] for row in net.bus.span_rows}
    downs = [finish[f"multicast:c{c}h1"] for c in range(4)]
    ups = [finish[f"multicast:c{c}u"] for c in range(4)]
    assert len(finish) == 8 and all(down > up for down, up in zip(downs, ups[1:]))
    # One down leg at a time, each a quarter-rate chunk: t + 4t, + 4t, ...
    t = 1024.0 / 1.25e9
    assert downs == pytest.approx([5 * t, 9 * t, 13 * t, 17 * t], rel=1e-12)


def test_multicast_copies_to_root_host_receivers_directly():
    net = make_fat_tree()
    h = switch_multicast(net, 0, [1, 2], 4096.0, switch="spine", n_chunks=2)
    net.run()
    finish = {row[7]["tag"]: row[4] for row in net.bus.span_rows}
    assert h.n_done == h.n_total == len(finish) == 5  # 1 local copy + 2 up + 2 down
    assert finish["multicast:loc1"] < h.finish_time == max(finish.values())


def test_allgather_ring_sends_to_the_next_device():
    net = make_net()
    ring_allgather(net, [0, 4, 8], 100.0)
    net.run()
    pairs = {(row[7]["src"], row[7]["dst"]) for row in net.bus.span_rows}
    assert pairs == {(0, 4), (4, 8), (8, 0)}


def test_broadcast_hop_waits_for_its_chunk():
    # 0 -> 4 crosses hosts, 4 -> 5 is NVLink: the fast hop forwards each
    # chunk as it arrives, never before, so the broadcast ends one NVLink
    # chunk after the last cross-host chunk.
    net = make_net()
    h = ring_broadcast(net, 0, [4, 5], GB, n_chunks=4)
    net.run()
    spec = net.cluster.spec
    chunk = GB / 4
    cross, nvlink = chunk / spec.inter_host_bandwidth, chunk / spec.intra_host_bandwidth
    assert h.finish_time == pytest.approx(4 * cross + nvlink, rel=1e-12)
