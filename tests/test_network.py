"""Unit tests for the flow-level network simulator."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cluster import GB, Cluster, ClusterSpec
from repro.sim.faults import FaultSchedule
from repro.sim.network import LossyNetwork, Network


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


@pytest.mark.parametrize("nbytes", [float("nan"), float("inf")])
def test_non_finite_bytes_rejected(nbytes):
    net = Network(Cluster(ClusterSpec(n_hosts=2, devices_per_host=2)))
    with pytest.raises(ValueError, match="non-finite"):
        net.start_flow(0, 2, nbytes)
    assert net.run() == 0.0


@pytest.mark.parametrize("src,dst", [(-1, 2), (0, 16), (16, 0), (0, -16)])
def test_unknown_device_rejected_at_submit(src, dst):
    # Also with a custom path: nothing routes it, so only the submit-time
    # check stands between a negative id and a wrapped host lookup.
    net = make_net()
    with pytest.raises(KeyError, match="no device"):
        net.start_flow(src, dst, 1000)
    with pytest.raises(KeyError, match="no device"):
        net.start_flow(src, dst, 1000, ports=("ns0",), latency=0.0)
    assert net.run() == 0.0


@pytest.mark.parametrize("latency", [None, 0.0])
def test_empty_custom_path_rejected_at_submit(latency):
    # A flow through no port has no bottleneck: it must not reach the
    # solver, where it would get no finite rate.
    net = make_net()
    with pytest.raises(ValueError, match="at least one port"):
        net.start_flow(0, 4, 1000, ports=(), latency=latency)
    assert net.run() == 0.0


# ----------------------------------------------------------------------
# Startup delays: each in [0, inf), checked before anything is created
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["latency"])
def test_infinite_delay_rejected(name):
    # Accepted once: the activation sat at t = inf and run() returned inf.
    net = make_net()
    with pytest.raises(ValueError, match=rf"^{name} must be finite and non-negative"):
        net.start_flow(0, 4, 1000, **{name: math.inf})
    assert net.run() == 0.0


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"latency": -1.0}, "latency must be finite and non-negative, got -1.0"),
        ({"latency": math.nan}, "latency must be finite and non-negative, got nan"),
    ],
)
def test_delay_error_names_the_argument(kwargs, message):
    net = make_net()
    with pytest.raises(ValueError) as err:
        net.start_flow(0, 4, 1000, **kwargs)
    assert str(err.value) == message


def test_latency_overflowing_the_clock_is_refused():
    # A finite latency from a clock near the float limit would activate
    # the flow at t = inf; the call is refused before it takes an id.
    net = make_net()
    net.loop.call_at(1e308, lambda: None)
    assert net.run() == 1e308
    with pytest.raises(ValueError) as err:
        net.start_flow(0, 4, 1000, latency=1e308)
    assert str(err.value) == "latency overflows the clock: 1e+308 + 1e+308"
    assert net.start_flow(0, 4, 1000).flow_id == 0


def test_rejected_call_takes_no_flow_id():
    # A NaN delay used to be refused only after its flow took id 0.
    net = make_net()
    for kwargs in ({"latency": math.nan}, {"latency": -1.0}, {"ports": ()}):
        with pytest.raises(ValueError):
            net.start_flow(0, 4, 1000, **kwargs)
    with pytest.raises(KeyError):
        net.start_flow(0, 99, 1000)
    assert net.start_flow(0, 4, 1000).flow_id == 0


@pytest.mark.parametrize("bad", [2.0, True, math.nan])
def test_non_integer_device_id_rejected(bad):
    # A float id passed the range check and then raised TypeError while
    # routing; a bool was accepted and named its port dsTrue.
    net = make_net()
    with pytest.raises(KeyError, match="no device"):
        net.start_flow(bad, 4, 1000)
    with pytest.raises(KeyError, match="no device"):
        net.start_flow(4, bad, 1000)
    assert net.run() == 0.0


def test_numpy_device_ids_run_like_ints():
    def run(src, dst):
        net = make_net(inter_host_latency=1e-4)
        f = net.start_flow(src, dst, 1000)
        return net.run(), f.ports

    assert run(np.int64(1), np.int32(6)) == run(1, 6)


#: one drawn argument: valid values, each bad kind, and a few near misses
_IDS = st.one_of(
    st.integers(-3, 18), st.integers(0, 15).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True),
)
_REALS = st.one_of(
    st.integers(-3, 10**6), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 0.0, -0.0, 1e-4, -1e-4]),
)
_PORTS = st.sampled_from([None, (), ("ns0",), ("ds1", "ns0", "nr1", "dr5")])
#: what a message must name when that argument is bad
_NAMES = {
    "src": "no device|source and destination", "dst": "no device|source and destination",
    "nbytes": "flow size", "ports": "port", "latency": r"(^|\s)latency\b",
}


def _bad_arguments(src, dst, nbytes, latency, ports):
    """The arguments start_flow must refuse, judged without the network."""
    def device(d):
        return isinstance(d, (int, np.integer)) and not isinstance(d, bool) and 0 <= d < 16

    def delay(x):
        return 0.0 <= x < math.inf

    bad = {name for name, d in (("src", src), ("dst", dst)) if not device(d)}
    if src == dst:
        bad |= {"src", "dst"}
    if not 0.0 <= nbytes < math.inf:
        bad.add("nbytes")
    if ports == ():
        bad.add("ports")
    if latency is not None and not delay(latency):
        bad.add("latency")
    return bad


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(src=_IDS, dst=_IDS, nbytes=_REALS, latency=st.none() | _REALS, ports=_PORTS)
def test_start_flow_returns_a_flow_or_names_a_bad_argument(
    src, dst, nbytes, latency, ports
):
    net = make_net()  # 16 devices, zero link latency
    net.start_flow(8, 12, 1000)
    net.run()  # one span row
    net.start_flow(8, 12, 1000)  # one pending event
    state = (net.loop.pending, list(net.bus.span_rows))
    bad = _bad_arguments(src, dst, nbytes, latency, ports)
    try:
        flow = net.start_flow(src, dst, nbytes, ports=ports, latency=latency)
    except (ValueError, KeyError) as err:
        assert bad, f"refused a valid call: {err!r}"
        assert any(re.search(_NAMES[name], str(err)) for name in bad), (bad, err)
        assert (net.loop.pending, net.bus.span_rows) == state
        assert net.start_flow(8, 12, 1000).flow_id == 2
        return
    assert not bad, f"accepted bad {sorted(bad)}"
    assert flow.flow_id == 2 and net.loop.pending == state[0] + 1
    assert flow.nbytes == flow.remaining == float(nbytes)
    assert math.isfinite(net.run()) and flow.done


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
    flows = [s for s in net.bus.spans if s.cat == "flow"]
    assert len(flows) == 1
    span = flows[0]
    assert span.name == span.attrs["tag"] == "x"
    assert span.attrs["src"] == 0 and span.attrs["dst"] == 4
    assert span.duration == pytest.approx(cross_t(net, GB))


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


@pytest.mark.parametrize(
    "build",
    [Network, lambda cluster: LossyNetwork(cluster, FaultSchedule(seed=0))],
    ids=["network", "lossy_zero_faults"],
)
def test_windowed_program_pinned_end_to_end(build):
    """1,000 seeded flows in ~64-flow admission waves on an 8x4 cluster,
    through the default solver and the batched event loop: the telemetry
    digest, makespan and event count are pinned exactly, and a
    LossyNetwork whose schedule injects nothing matches them."""
    rng = random.Random(7)
    cluster = Cluster(ClusterSpec(n_hosts=8, devices_per_host=4))
    net = build(cluster)
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
            latency=cluster.link_latency(src, dst) + (i // 64) * 2e-4,
            tag=f"f{i}",
        )
    assert net.run() == 0.03572399999999998
    assert net.loop.processed == 1665
    assert net.bus.digest() == (
        "af078b863e5b6742a0362334af528f879a13f646f9a8e7ce7237e95b0d9c8496"
    )


# ----------------------------------------------------------------------
# Per-network memos: routes and static port capacities
# ----------------------------------------------------------------------
def test_custom_path_bypasses_route_memo():
    net = make_net(inter_host_latency=0.5)
    bw = net.cluster.spec.inter_host_bandwidth
    routed = net.start_flow(0, 4, 1024.0)
    assert net.run() == 0.5 + 1024.0 / bw
    assert routed.ports == ("ds0", "ns0", "nr1", "dr4")
    # Same (src, dst) pair as the memoized route, but a multicast-style
    # segment: its own ports and latency, never the cached ones.
    segment = net.start_flow(0, 4, 1024.0, ports=("ns0",), latency=0.0)
    t0 = net.loop.now
    assert net.run() == t0 + 1024.0 / bw
    assert segment.ports == ("ns0",)
    # ...and the segment did not overwrite the memo for later flows.
    again = net.start_flow(0, 4, 1024.0)
    t1 = net.loop.now
    assert net.run() == t1 + 0.5 + 1024.0 / bw
    assert again.ports == routed.ports


def test_lossy_flow_keeps_its_own_latency_for_retries():
    # A retry re-applies the attempt's startup latency: a segment's own,
    # a routed flow's the route's.
    cluster = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4, inter_host_latency=0.5))
    net = LossyNetwork(cluster, FaultSchedule(seed=0))
    segment = net.start_flow(0, 4, 1024.0, ports=("ns0",), latency=0.0)
    routed = net.start_flow(0, 4, 1024.0)
    given = net.start_flow(0, 4, 1024.0, latency=0.25)
    assert (segment.base_latency, routed.base_latency, given.base_latency) == (0.0, 0.5, 0.25)


def test_port_repeated_in_a_path_counts_twice():
    net = make_net()
    bw = net.cluster.spec.inter_host_bandwidth
    twice = net.start_flow(0, 4, 1024.0, ports=("ns0", "ns0"), latency=0.0)
    once = net.start_flow(1, 8, 1024.0, ports=("ns0",), latency=0.0)
    net.loop.run(until=0.0)
    # ns0 carries three traversals: each gets a third of the NIC.
    assert twice.rate == bw / 3
    assert once.rate == bw / 3
    net.run()
    alone = make_net()
    f = alone.start_flow(0, 4, 1024.0, ports=("ns0", "ns0"), latency=0.0)
    assert alone.run() == 1024.0 / (bw / 2)
    assert f.rate == bw / 2


def test_nic_window_open_and_close_mid_flow_hand_computed():
    # Dyadic numbers keep every step exact: 1 s at 1024 B/s, 2 s at half
    # rate, then back to full rate for the last 2048 B.  A capacity memo
    # that kept the degraded factor would finish late.
    from repro.sim.faults import DegradedWindow

    spec = ClusterSpec(
        n_hosts=2,
        devices_per_host=2,
        inter_host_bandwidth=1024.0,
        intra_host_bandwidth=4096.0,
        inter_host_latency=0.5,
        intra_host_latency=0.0,
    )
    faults = FaultSchedule(
        degradations=(DegradedWindow(host=0, start=1.5, duration=2.0, factor=0.5),)
    )
    net = LossyNetwork(Cluster(spec), faults)
    f = net.start_flow(0, 2, 4096.0)
    assert net.run() == 5.5
    assert f.finish_time == 5.5
    assert net._base_capacity["ns0"] == 1024.0


# ----------------------------------------------------------------------
# Completion ties and the cost of a retried attempt
# ----------------------------------------------------------------------
def test_completion_tie_tolerance_is_relative_above_one_second():
    # Two lone flows whose ETAs, near 1024 s, differ by 2**-33 s (~1.2e-10):
    # within the tolerance 1e-12 * ETA, so both finish at the first one's
    # event.  An absolute 1e-12 s tolerance would finish the second later.
    net = make_net(inter_host_bandwidth=1024.0, intra_host_bandwidth=4096.0)
    a = net.start_flow(0, 4, 2.0**20)
    b = net.start_flow(8, 12, 2.0**20 + 2.0**-23)
    assert net.run() == 1024.0
    assert a.finish_time == b.finish_time == 1024.0


def test_eta_exactly_on_the_tie_bound_finishes_with_the_earliest():
    # At 1 B/s an ETA is its byte count, so the second flow's ETA is
    # exactly the tie bound of the first's, 0.5 + 1e-12 * 1 + 1e-15 (the
    # absolute floor applies below 1 s): it finishes with the first.
    net = make_net(inter_host_bandwidth=1.0, intra_host_bandwidth=4.0)
    bound = 0.5 + 1e-12 * 1.0 + 1e-15
    a = net.start_flow(0, 4, 0.5)
    b = net.start_flow(8, 12, bound)
    assert net.run() == 0.5
    assert a.finish_time == b.finish_time == 0.5


def test_unmoved_completion_keeps_its_place_at_its_instant():
    # A finishes at t = 1 either way; B's activation at t = 0.5 leaves
    # that instant where it was, so the armed completion is kept, and it
    # still runs before an event pushed for t = 1 after it.  A re-push
    # would take a later seq and run after the probe.
    net = make_net(inter_host_bandwidth=1024.0, intra_host_bandwidth=4096.0)
    a = net.start_flow(0, 4, 1024.0)
    net.loop.run(until=0.0)  # A is active and its completion armed
    seen = []
    net.loop.call_at(1.0, lambda: seen.append(a.done))
    net.start_flow(8, 12, 2048.0, latency=0.5)
    assert net.run() == 2.5
    assert seen == [True]


def test_flow_finished_at_time_zero_is_done():
    net = make_net()
    f = net.start_flow(0, 4, 0.0)
    assert not f.done
    net.run()
    assert f.finish_time == 0.0 and f.done


def test_partition_opening_mid_flight_kills_the_flow():
    # 4096 B at 1024 B/s from host 0 to host 1.  The partition opens at
    # t = 1 and kills the attempt (1024 B lost); the retry waits the 2 s
    # backoff, starts at t = 3 after the partition closed, and ends at 7.
    from repro.sim.faults import Partition, RetryPolicy

    spec = ClusterSpec(
        n_hosts=2,
        devices_per_host=2,
        inter_host_bandwidth=1024.0,
        intra_host_bandwidth=4096.0,
        inter_host_latency=0.0,
        intra_host_latency=0.0,
    )
    faults = FaultSchedule(partitions=(Partition((0,), (1,), start=1.0, duration=1.0),))
    policy = RetryPolicy(max_attempts=3, backoff_base=2.0, jitter=0.0)
    net = LossyNetwork(Cluster(spec), faults, policy)
    f = net.start_flow(0, 2, 4096.0)
    assert net.run() == 7.0
    assert f.attempts == 2
    assert [i.kind for i in net.incidents] == ["partition"]
    assert net.wasted_bytes == 1024.0


def test_retry_charges_an_attempt_that_started_at_time_zero():
    # A 4096 B flow at 1024 B/s starts at exactly t = 0 and is killed by
    # a flap at t = 1: the lost attempt ran 1 s (1024 B), and the retry
    # waits the 2 s backoff.  start_time 0.0 is a started attempt.
    from repro.sim.faults import FlapWindow, RetryPolicy

    spec = ClusterSpec(
        n_hosts=2,
        devices_per_host=2,
        inter_host_bandwidth=1024.0,
        intra_host_bandwidth=4096.0,
        inter_host_latency=0.0,
        intra_host_latency=0.0,
    )
    faults = FaultSchedule(flaps=(FlapWindow(host=1, start=1.0, duration=0.5),))
    policy = RetryPolicy(max_attempts=3, backoff_base=2.0, jitter=0.0)
    net = LossyNetwork(Cluster(spec), faults, policy)
    f = net.start_flow(0, 2, 4096.0)
    assert net.run() == 7.0
    assert f.attempts == 2
    assert net.fault_report().added_latency == 1.0 + 2.0
    assert net.wasted_bytes == 1024.0


def _lossy_pair(faults, policy):
    """Two hosts of two devices at 1024 B/s, 0.5 s of link latency."""
    spec = ClusterSpec(
        n_hosts=2,
        devices_per_host=2,
        inter_host_bandwidth=1024.0,
        intra_host_bandwidth=4096.0,
        inter_host_latency=0.5,
        intra_host_latency=0.0,
    )
    return LossyNetwork(Cluster(spec), faults, policy)


def test_retry_charges_an_attempt_that_began_after_time_zero():
    # The flow activates at t = 0.5 and a flap kills it at t = 1.5: the
    # lost attempt ran 1 s (1024 B), the backoff is 2 s, and the retry
    # activates 0.5 s after that, at t = 4, and ends at t = 8.
    from repro.sim.faults import FlapWindow, RetryPolicy

    faults = FaultSchedule(flaps=(FlapWindow(host=1, start=1.5, duration=0.25),))
    net = _lossy_pair(faults, RetryPolicy(max_attempts=3, backoff_base=2.0, jitter=0.0))
    f = net.start_flow(0, 2, 4096.0)
    assert net.run() == 8.0
    report = net.fault_report()
    assert (report.n_faults, report.n_retries, report.n_abandoned) == (1, 1, 0)
    assert report.added_latency == 1.0 + 2.0
    assert net.wasted_bytes == 1024.0 and f.attempts == 2


def test_a_down_nic_outranks_a_partition_on_the_same_path():
    from repro.sim.faults import FlapWindow, Partition, RetryPolicy

    faults = FaultSchedule(
        flaps=(FlapWindow(host=1, start=0.0, duration=1.0),),
        partitions=(Partition((0,), (1,), start=0.0, duration=1.0),),
    )
    net = _lossy_pair(faults, RetryPolicy(max_attempts=2, backoff_base=2.0, jitter=0.0))
    net.start_flow(0, 2, 4096.0)
    net.run()
    assert [i.kind for i in net.incidents] == ["nic-down"]
