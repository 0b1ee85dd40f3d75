"""Tests for heterogeneous networking (per-host NIC bandwidth overrides).

The paper lists heterogeneous networking among the challenges of
cross-mesh resharding (§1): uneven bandwidth must be considered when
assigning communication tasks.
"""

import numpy as np
import pytest

from repro.core.api import reshard
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.scheduling import SchedulingProblem, ensemble_schedule
from repro.sim.cluster import GB, GBPS, Cluster, ClusterSpec
from repro.sim.network import Network


def hetero_cluster(slow_host=0, slow_bw=5 * GBPS, n_hosts=4):
    return Cluster(
        ClusterSpec(
            n_hosts=n_hosts,
            devices_per_host=4,
            host_bandwidth_overrides=((slow_host, slow_bw),),
            inter_host_latency=0.0,
            intra_host_latency=0.0,
        )
    )


def test_spec_override_validation():
    with pytest.raises(ValueError, match="unknown host"):
        ClusterSpec(n_hosts=2, host_bandwidth_overrides=((5, 1.0),))
    with pytest.raises(ValueError, match="positive"):
        ClusterSpec(n_hosts=2, host_bandwidth_overrides=((0, 0.0),))


def test_host_nic_bandwidth_lookup():
    spec = ClusterSpec(n_hosts=3, host_bandwidth_overrides=((1, 5 * GBPS),))
    assert spec.host_nic_bandwidth(0) == pytest.approx(10 * GBPS)
    assert spec.host_nic_bandwidth(1) == pytest.approx(5 * GBPS)


def test_link_bandwidth_is_min_of_endpoints():
    """A cross-host flow runs at the slower of its two NICs, whichever
    end is slow."""
    c = hetero_cluster(slow_host=0)
    times = {}
    for src, dst in ((0, 4), (4, 0), (4, 8)):
        net = Network(c)
        flow = net.start_flow(src, dst, GB)
        net.run()
        times[src, dst] = flow.finish_time
    assert times[0, 4] == times[4, 0] == pytest.approx(GB / (5 * GBPS))
    assert times[4, 8] == pytest.approx(GB / (10 * GBPS))


def test_flow_through_slow_nic_is_slower():
    c = hetero_cluster(slow_host=0)
    net = Network(c)
    slow = net.start_flow(0, 4, GB)   # from slow host
    net.run()
    net2 = Network(c)
    fast = net2.start_flow(4, 8, GB)  # between fast hosts
    net2.run()
    assert slow.finish_time == pytest.approx(2 * fast.finish_time)


def test_scheduler_avoids_slow_sender_host():
    """With a choice of sender hosts, the schedule routes around the
    slow NIC."""
    c = hetero_cluster(slow_host=0, slow_bw=1 * GBPS)
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    # fully replicated source: every unit task may pick either sender host
    rt = ReshardingTask((1 << 22, 2), src, "RR", dst, "S0R", dtype=np.float32)
    p = SchedulingProblem.from_resharding(rt)
    s = ensemble_schedule(p)
    assert all(h == 1 for h in s.assignment.values()), s.assignment


def test_durations_reflect_slow_receivers():
    c = hetero_cluster(slow_host=2, slow_bw=2 * GBPS)
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    rt = ReshardingTask((1 << 20, 2), src, "S0R", dst, "S0R", dtype=np.float32)
    p = SchedulingProblem.from_resharding(rt)
    durs = {t.task_id: max(t.duration_by_host.values()) for t in p.tasks}
    # the unit task whose receiver sits on the slow host takes 5x longer
    assert max(durs.values()) == pytest.approx(5 * min(durs.values()))


def test_end_to_end_hetero_reshard_correct_and_slower():
    c_fast = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    c_slow = Cluster(
        ClusterSpec(
            n_hosts=4,
            devices_per_host=4,
            host_bandwidth_overrides=((2, 2 * GBPS),),
        )
    )
    arr = np.arange(64 * 64 * 16, dtype=np.float32).reshape(64, 64, 16)
    lat = {}
    for name, c in (("fast", c_fast), ("slow", c_slow)):
        src = DeviceMesh.from_hosts(c, [0, 1])
        dst = DeviceMesh.from_hosts(c, [2, 3])
        r = reshard(arr, src, "S0RR", dst, "S0RR", strategy="broadcast")
        assert r.dst_tensor.allclose(arr)
        lat[name] = r.latency
    assert lat["slow"] > lat["fast"]
