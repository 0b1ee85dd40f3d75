"""Fault model + fault-tolerant network: unit tests.

Covers the FaultSchedule data model (windows, seeded generation,
deterministic per-flow draws), the RetryPolicy, and the Network's
failure semantics: degradation, flaps (mid-flight kill and fast-fail),
drop-at-delivery, timeouts, retries with backoff, abandonment, and the
trace statuses.
"""

import pytest

from repro.core.executor import simulate_plan
from repro.experiments import chaos
from repro.sim import GB, Cluster, ClusterSpec, Network
from repro.sim.faults import (
    DegradedWindow,
    FaultReport,
    FaultSchedule,
    FlapWindow,
    RetryPolicy,
    StragglerWindow,
)
from repro.strategies import BroadcastStrategy


def make_net(faults=None, policy=None, **kw) -> Network:
    defaults = dict(
        n_hosts=4,
        devices_per_host=4,
        inter_host_latency=0.0,
        intra_host_latency=0.0,
    )
    defaults.update(kw)
    return Network(
        Cluster(ClusterSpec(**defaults)), faults=faults, retry_policy=policy
    )


def cross_t(net: Network, nbytes: float) -> float:
    return nbytes / net.cluster.spec.inter_host_bandwidth


# ----------------------------------------------------------------------
# FaultSchedule data model
# ----------------------------------------------------------------------
def test_window_validation():
    with pytest.raises(ValueError, match="duration"):
        FlapWindow(host=0, start=0.0, duration=0.0)
    with pytest.raises(ValueError, match="factor"):
        DegradedWindow(host=0, start=0.0, duration=1.0, factor=1.5)
    with pytest.raises(ValueError, match="slowdown"):
        StragglerWindow(stage=0, start=0.0, duration=1.0, slowdown=0.5)
    with pytest.raises(ValueError, match="drop_rate"):
        FaultSchedule(drop_rate=1.0)


def test_nic_factor_and_host_down():
    fs = FaultSchedule(
        seed=0,
        degradations=(
            DegradedWindow(host=1, start=1.0, duration=2.0, factor=0.5),
            DegradedWindow(host=1, start=2.0, duration=2.0, factor=0.5),
        ),
        flaps=(FlapWindow(host=2, start=5.0, duration=1.0),),
    )
    assert fs.nic_factor(1, 0.5) == 1.0
    assert fs.nic_factor(1, 1.5) == 0.5
    assert fs.nic_factor(1, 2.5) == 0.25  # overlapping windows compound
    assert fs.nic_factor(1, 3.5) == 0.5
    assert fs.nic_factor(1, 4.5) == 1.0
    assert fs.host_down(2, 5.5) and not fs.host_down(2, 6.0)
    assert fs.nic_factor(2, 5.5) == 0.0
    assert fs.host_down_during(2, 4.0, 5.5)
    assert not fs.host_down_during(2, 6.0, 7.0)
    assert fs.boundaries() == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert fs.horizon() == 6.0


def test_mean_nic_factor_time_average():
    fs = FaultSchedule(
        seed=0,
        degradations=(DegradedWindow(host=0, start=0.0, duration=5.0, factor=0.5),),
    )
    # Half speed for half of a 10s horizon -> 0.75 average.
    assert fs.mean_nic_factor(0, horizon=10.0) == pytest.approx(0.75)
    assert fs.mean_nic_factor(1, horizon=10.0) == 1.0
    # Default horizon = end of last window.
    assert fs.mean_nic_factor(0) == pytest.approx(0.5)


def test_generate_is_replayable():
    a = FaultSchedule.generate(seed=42, n_hosts=8, horizon=10.0, drop_rate=0.1)
    b = FaultSchedule.generate(seed=42, n_hosts=8, horizon=10.0, drop_rate=0.1)
    assert a == b
    c = FaultSchedule.generate(seed=43, n_hosts=8, horizon=10.0, drop_rate=0.1)
    assert a != c
    for w in a.degradations + a.flaps:
        assert 0 <= w.host < 8
        assert 0.0 <= w.start <= 10.0


def test_should_drop_deterministic_and_rate():
    fs = FaultSchedule(seed=3, drop_rate=0.3)
    draws = [fs.should_drop(i, 1) for i in range(2000)]
    assert draws == [fs.should_drop(i, 1) for i in range(2000)]
    rate = sum(draws) / len(draws)
    assert 0.25 < rate < 0.35
    assert not FaultSchedule(seed=3, drop_rate=0.0).should_drop(0, 1)


def test_retry_policy_backoff():
    p = RetryPolicy(max_attempts=3, backoff_base=1.0, backoff_factor=2.0, jitter=0.0)
    assert p.backoff(1, "k") == 1.0
    assert p.backoff(2, "k") == 2.0
    assert p.backoff(3, "k") == 4.0
    assert not p.exhausted(2) and p.exhausted(3)
    j = RetryPolicy(jitter=0.5, backoff_base=1.0, backoff_factor=1.0)
    d1, d2 = j.backoff(1, "a"), j.backoff(1, "b")
    assert d1 != d2  # different keys de-synchronize
    assert j.backoff(1, "a") == d1  # but deterministically
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)


def test_fault_report_status():
    with pytest.raises(ValueError, match="status"):
        FaultReport(status="weird")
    r = FaultReport(status="recovered", n_faults=2, n_retries=2)
    assert r.recovered and not r.fatal


# ----------------------------------------------------------------------
# Network under faults
# ----------------------------------------------------------------------
def test_degraded_link_slows_flow():
    fs = FaultSchedule(
        seed=0,
        degradations=(DegradedWindow(host=0, start=0.0, duration=100.0, factor=0.5),),
    )
    net = make_net(faults=fs)
    f = net.start_flow(0, 4, GB)
    net.run()
    assert f.finish_time == pytest.approx(2 * cross_t(net, GB))
    assert net.fault_report().status == "clean"  # degradation is not a fault event


def test_degradation_window_boundary_mid_flight():
    # First half at full speed, then the NIC halves: t = 0.5*T + 0.5*T*2.
    T = cross_t(make_net(), GB)
    fs = FaultSchedule(
        seed=0,
        degradations=(
            DegradedWindow(host=0, start=T / 2, duration=100.0, factor=0.5),
        ),
    )
    net = make_net(faults=fs)
    f = net.start_flow(0, 4, GB)
    net.run()
    assert f.finish_time == pytest.approx(T / 2 + T)


def test_flap_kills_mid_flight_and_retries():
    T = cross_t(make_net(), GB)
    fs = FaultSchedule(seed=0, flaps=(FlapWindow(host=1, start=T / 2, duration=T),))
    net = make_net(
        faults=fs, policy=RetryPolicy(max_attempts=20, backoff_base=T / 4, jitter=0.0)
    )
    done = []
    f = net.start_flow(0, 4, GB, on_complete=lambda fl: done.append(fl))
    net.run()
    assert done and f.attempts > 1 and not f.abandoned
    assert f.finish_time > 1.5 * T  # flap + full re-transfer
    statuses = [r.status for r in net.trace if r.flow_id == f.flow_id]
    assert statuses[0] == "failed" and statuses[-1] == "retried"
    rep = net.fault_report()
    assert rep.recovered and rep.n_retries >= 1 and rep.added_latency > 0
    assert any(i.kind == "nic-flap" for i in rep.incidents)


def test_fast_fail_while_nic_down():
    fs = FaultSchedule(seed=0, flaps=(FlapWindow(host=1, start=0.0, duration=0.5),))
    net = make_net(
        faults=fs, policy=RetryPolicy(max_attempts=20, backoff_base=0.05, jitter=0.0)
    )
    f = net.start_flow(0, 4, GB)
    net.run()
    assert not f.abandoned
    failed = [r for r in net.trace if r.status == "failed"]
    assert failed and all(r.start_time == -1.0 for r in failed)
    # Satellite: never-active records report queue-inclusive durations.
    assert all(r.duration >= 0.0 for r in failed)
    assert all(r.queued_time == r.duration for r in failed)
    ok = [r for r in net.trace if r.status == "retried"]
    assert len(ok) == 1 and ok[0].queued_time == pytest.approx(
        ok[0].start_time - ok[0].submit_time
    )


def test_abandonment_fires_on_abandon_not_on_complete():
    fs = FaultSchedule(seed=0, flaps=(FlapWindow(host=1, start=0.0, duration=1e9),))
    net = make_net(
        faults=fs, policy=RetryPolicy(max_attempts=3, backoff_base=1e-3, jitter=0.0)
    )
    completed, abandoned = [], []
    f = net.start_flow(
        0, 4, GB, on_complete=lambda fl: completed.append(fl),
        on_abandon=lambda fl: abandoned.append(fl),
    )
    net.run()
    assert f.abandoned and abandoned == [f] and not completed
    assert f.attempts == 3
    rep = net.fault_report()
    assert rep.fatal and rep.n_abandoned == 1
    assert [r.status for r in net.trace] == ["failed", "failed", "abandoned"]
    assert not any(i.resolved for i in rep.incidents if i.attempt == 3)


def test_drop_at_delivery_consumes_bandwidth_then_retries():
    # Find a seed whose first attempt drops (deterministic search).
    seed = next(
        s for s in range(100) if FaultSchedule(seed=s, drop_rate=0.5).should_drop(0, 1)
    )
    fs = FaultSchedule(seed=seed, drop_rate=0.5)
    T = cross_t(make_net(), GB)
    net = make_net(
        faults=fs, policy=RetryPolicy(max_attempts=30, backoff_base=T / 8, jitter=0.0)
    )
    f = net.start_flow(0, 4, GB)
    net.run()
    assert f.attempts > 1 and not f.abandoned
    assert f.finish_time > 2 * T  # at least one wasted full transfer
    assert net.wasted_bytes >= GB
    # Delivered bytes counted once despite the wasted attempt.
    assert net.bytes_cross_host == GB


def test_flow_timeout_cuts_stuck_transfer():
    # Degrade to 1% speed for 3T: without a timeout the flow crawls for
    # ~100T.  A 2T deadline (double the healthy transfer time) kills the
    # stuck attempt; the retry after the window runs at full speed.
    T = cross_t(make_net(), GB)
    fs = FaultSchedule(
        seed=0,
        degradations=(DegradedWindow(host=0, start=0.0, duration=3 * T, factor=0.01),),
    )
    net = make_net(
        faults=fs,
        policy=RetryPolicy(
            max_attempts=10, backoff_base=T, jitter=0.0, flow_timeout=2 * T
        ),
    )
    f = net.start_flow(0, 4, GB)
    net.run()
    rep = net.fault_report()
    assert any(i.kind == "timeout" for i in rep.incidents)
    assert not f.abandoned and f.finish_time < 10 * T


def test_healthy_network_unaffected_by_fault_plumbing():
    """faults=None must leave the simulation byte-identical to seed."""
    plain = make_net()
    f1 = plain.start_flow(0, 4, GB)
    f2 = plain.start_flow(1, 8, GB)
    plain.run()
    nofault = make_net(faults=FaultSchedule(seed=0))
    g1 = nofault.start_flow(0, 4, GB)
    g2 = nofault.start_flow(1, 8, GB)
    nofault.run()
    assert (f1.finish_time, f2.finish_time) == (g1.finish_time, g2.finish_time)
    assert plain.fault_report() is None
    assert nofault.fault_report().status == "clean"
    rec = [
        (r.flow_id, r.src, r.dst, r.submit_time, r.start_time, r.finish_time,
         r.status, r.attempts)
        for r in plain.trace
    ]
    rec2 = [
        (r.flow_id, r.src, r.dst, r.submit_time, r.start_time, r.finish_time,
         r.status, r.attempts)
        for r in nofault.trace
    ]
    assert rec == rec2


@pytest.mark.parametrize(
    "faults",
    [
        FaultSchedule(seed=0, drop_rate=0.0),
        FaultSchedule(
            seed=0, drop_rate=0.0, domain_failures=(), partitions=(), corruptions=()
        ),
    ],
    ids=["drop_rate_0", "empty_correlated_and_gray_classes"],
)
def test_zero_fault_schedule_is_exactly_the_fault_free_run(faults):
    """With nothing to inject, the retry machinery and every fault-class
    check cost nothing: the 1 GB chaos-sweep resharding dispatches the
    same events to the same makespan and telemetry as ``faults=None``."""
    task = chaos.make_task()
    clean = simulate_plan(BroadcastStrategy().plan(task))
    res = simulate_plan(
        BroadcastStrategy(faults=faults).plan(task),
        faults=faults,
        retry_policy=chaos.POLICY,
    )
    assert res.fault_report.status == "clean"
    assert res.corrupted_ops == () and res.unverified_corruption == ()
    assert res.total_time == clean.total_time
    assert res.network.loop.processed == clean.network.loop.processed
    assert res.network.bus.digest() == clean.network.bus.digest()


# ----------------------------------------------------------------------
# Satellites: mean_nic_factor coverage, categories(), shifted() clipping
# ----------------------------------------------------------------------
def test_mean_nic_factor_overlapping_windows():
    from repro.sim.faults import DegradedWindow

    fs = FaultSchedule(
        seed=0,
        degradations=(
            DegradedWindow(host=0, start=0.0, duration=4.0, factor=0.5),
            DegradedWindow(host=0, start=2.0, duration=4.0, factor=0.5),
        ),
    )
    # [0,2): 0.5, [2,4): 0.25 (windows compound), [4,6): 0.5, [6,8): 1.0
    expected = (2 * 0.5 + 2 * 0.25 + 2 * 0.5 + 2 * 1.0) / 8.0
    assert fs.mean_nic_factor(0, horizon=8.0) == pytest.approx(expected)


def test_mean_nic_factor_explicit_short_horizon():
    from repro.sim.faults import DegradedWindow

    fs = FaultSchedule(
        seed=0,
        degradations=(DegradedWindow(host=0, start=1.0, duration=9.0, factor=0.5),),
    )
    # A horizon shorter than the window's end only averages the part of
    # the window actually inside [0, horizon).
    assert fs.mean_nic_factor(0, horizon=2.0) == pytest.approx(
        (1.0 * 1.0 + 1.0 * 0.5) / 2.0
    )
    # Horizon entirely before the window: nothing degraded yet.
    assert fs.mean_nic_factor(0, horizon=1.0) == pytest.approx(1.0)


def test_fault_report_categories_zero_filled_and_stable():
    from repro.sim.faults import FAULT_CATEGORIES, FaultIncident

    empty = FaultReport(status="clean")
    assert tuple(empty.categories()) == FAULT_CATEGORIES
    assert all(v == 0 for v in empty.categories().values())

    rep = FaultReport(
        status="fatal",
        incidents=[
            FaultIncident(kind="nic-flap", where="flow 0", time=0.1),
            FaultIncident(kind="nic-down", where="flow 1", time=0.2),
            FaultIncident(kind="domain-down", where="flow 2", time=0.3),
            FaultIncident(kind="partition", where="flow 3", time=0.4),
            FaultIncident(kind="corruption", where="flow 4", time=0.5),
            FaultIncident(kind="host-down", where="flow 5", time=0.6),
            FaultIncident(kind="timeout", where="flow 6", time=0.7),
            FaultIncident(kind="dropped", where="flow 7", time=0.8),
            # Unknown kinds must not crash the summary; they land in "drop".
            FaultIncident(kind="haunted", where="flow 8", time=0.9),
        ],
    )
    cats = rep.categories()
    assert tuple(cats) == FAULT_CATEGORIES  # fixed key order
    assert cats["flap"] == 2
    assert cats["domain"] == 1
    assert cats["partition"] == 1
    assert cats["corruption"] == 1
    assert cats["host"] == 1
    assert cats["degraded"] == 1  # timeout = an attempt stretched past bound
    assert cats["drop"] == 2  # dropped + unknown kind
    assert cats["straggler"] == 0
    assert sum(cats.values()) == len(rep.incidents)


def test_shifted_clips_pre_origin_host_failures_to_one_event():
    from repro.sim.faults import HostFailure

    # Regression (satellite 1): a host that failed repeatedly before the
    # new origin used to re-emit one synthetic t=0 failure per past
    # event; the replan view then saw phantom duplicate strikes.
    fs = FaultSchedule(
        seed=0,
        host_failures=(
            HostFailure(1, 1.0),
            HostFailure(1, 2.0),
            HostFailure(2, 3.0),
            HostFailure(3, 9.0),
        ),
    )
    sh = fs.shifted(5.0)
    assert sh.host_failures == (
        HostFailure(1, 0.0),
        HostFailure(2, 0.0),
        HostFailure(3, 4.0),
    )
    # Idempotent on the already-shifted view.
    assert sh.shifted(0.0) is sh


def test_shifted_clips_domain_partition_and_corruption_windows():
    from repro.sim.faults import CorruptionWindow, DomainFailure, Partition

    fs = FaultSchedule(
        seed=0,
        domain_failures=(
            DomainFailure("rack0", (0, 1), 1.0, None),
            DomainFailure("rack0", (0, 1), 2.0, None),  # dup pre-origin strike
            DomainFailure("rack1", (2, 3), 4.0, 4.0),
        ),
        partitions=(
            Partition((0,), (2,), 1.0, 2.0),  # fully past -> dropped
            Partition((1,), (3,), 4.0, 4.0),  # straddles -> clipped
        ),
        corruptions=(CorruptionWindow(host=2, start=6.0, duration=2.0, rate=0.5),),
    )
    sh = fs.shifted(5.0)
    # Permanent domain failures collapse to one t=0 event per domain.
    assert sh.domain_failures == (
        DomainFailure("rack0", (0, 1), 0.0, None),
        DomainFailure("rack1", (2, 3), 0.0, 3.0),
    )
    assert sh.partitions == (Partition((1,), (3,), 0.0, 3.0),)
    assert sh.corruptions == (CorruptionWindow(host=2, start=1.0, duration=2.0, rate=0.5),)
