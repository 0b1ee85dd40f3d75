"""Fault model + fault-tolerant network: unit tests.

Covers the FaultSchedule data model (windows, seeded generation,
deterministic per-flow draws), the RetryPolicy, and the LossyNetwork's
failure semantics: degradation, flaps (mid-flight kill and fast-fail),
drop-at-delivery, retries with backoff, abandonment, and the trace
statuses.
"""

import math

import pytest

from repro.compiler import compile_resharding
from repro.core.executor import simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.experiments import chaos
from repro.sim import GB, Cluster, ClusterSpec, LossyNetwork, Network
from repro.sim.faults import (
    CorruptionWindow,
    DegradedWindow,
    DomainFailure,
    FaultReport,
    FaultSchedule,
    FlapWindow,
    HostFailure,
    Partition,
    RetryPolicy,
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
    cluster = Cluster(ClusterSpec(**defaults))
    return Network(cluster) if faults is None else LossyNetwork(cluster, faults, policy)


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
    with pytest.raises(ValueError, match="drop_rate"):
        FaultSchedule(drop_rate=1.0)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_degraded_window_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="start"):
        DegradedWindow(host=0, start=bad, duration=1.0, factor=0.5)
    with pytest.raises(ValueError, match="duration"):
        DegradedWindow(host=0, start=0.0, duration=bad, factor=0.5)
    with pytest.raises(ValueError, match="factor"):
        DegradedWindow(host=0, start=0.0, duration=1.0, factor=bad)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_flap_window_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="start"):
        FlapWindow(host=0, start=bad, duration=1.0)
    with pytest.raises(ValueError, match="duration"):
        FlapWindow(host=0, start=0.0, duration=bad)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_host_failure_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="time"):
        HostFailure(host=0, time=bad)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_domain_failure_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="time"):
        DomainFailure("rack0", (0, 1), time=bad)
    with pytest.raises(ValueError, match="duration"):
        DomainFailure("rack0", (0, 1), time=0.0, duration=bad)
    # None stays the permanent (fail-stop) case.
    assert DomainFailure("rack0", (0, 1), time=0.0, duration=None).permanent


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_partition_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="start"):
        Partition((0,), (1,), start=bad, duration=1.0)
    with pytest.raises(ValueError, match="duration"):
        Partition((0,), (1,), start=0.0, duration=bad)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_corruption_window_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="start"):
        CorruptionWindow(host=0, start=bad, duration=1.0)
    with pytest.raises(ValueError, match="duration"):
        CorruptionWindow(host=0, start=0.0, duration=bad)
    with pytest.raises(ValueError, match="rate"):
        CorruptionWindow(host=0, start=0.0, duration=1.0, rate=bad)


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


@pytest.mark.parametrize(
    "name, value",
    [
        ("backoff_base", math.inf),
        ("backoff_base", math.nan),
        ("backoff_base", -1.0),
        ("backoff_factor", math.inf),
        ("backoff_factor", math.nan),
        ("backoff_factor", 0.5),
        ("max_attempts", math.nan),
        ("max_attempts", 2.5),
        ("max_attempts", True),
    ],
)
def test_retry_policy_rejects_non_finite_and_out_of_range(name, value):
    # backoff_base=inf used to return iteration_time=inf with
    # added_latency=nan as a "recovered" run; NaN failed mid-run in the
    # kernel's past-event guard; 2.5 attempts built and simulated, and
    # True meant one attempt.
    with pytest.raises(ValueError, match=name):
        RetryPolicy(**{name: value})


def test_fault_report_status():
    with pytest.raises(ValueError, match="status"):
        FaultReport(status="weird")
    r = FaultReport(status="recovered", n_faults=2, n_retries=2)
    assert r.status == "recovered" and not r.fatal


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
    statuses = [
        s.attrs["status"]
        for s in net.bus.spans
        if s.cat == "flow" and s.attrs["flow_id"] == f.flow_id
    ]
    assert statuses[0] == "failed" and statuses[-1] == "retried"
    rep = net.fault_report()
    assert rep.status == "recovered" and rep.n_retries >= 1 and rep.added_latency > 0
    assert any(i.kind == "nic-flap" for i in rep.incidents)


def test_fast_fail_while_nic_down():
    fs = FaultSchedule(seed=0, flaps=(FlapWindow(host=1, start=0.0, duration=0.5),))
    net = make_net(
        faults=fs, policy=RetryPolicy(max_attempts=20, backoff_base=0.05, jitter=0.0)
    )
    f = net.start_flow(0, 4, GB)
    net.run()
    assert not f.abandoned
    flows = [s for s in net.bus.spans if s.cat == "flow"]
    failed = [s for s in flows if s.attrs["status"] == "failed"]
    assert failed and all(s.attrs["active_start"] == -1.0 for s in failed)
    # A never-active attempt's span starts at its submission.
    assert all(s.start == s.attrs["submit_time"] == 0.0 for s in failed)
    assert all(s.duration >= 0.0 for s in failed)
    ok = [s for s in flows if s.attrs["status"] == "retried"]
    assert len(ok) == 1
    assert ok[0].start == ok[0].attrs["active_start"] > ok[0].attrs["submit_time"]


def test_abandonment_fires_on_abandon_not_on_complete():
    fs = FaultSchedule(seed=0, flaps=(FlapWindow(host=1, start=0.0, duration=1e9),))
    net = make_net(
        faults=fs, policy=RetryPolicy(max_attempts=3, backoff_base=1e-3, jitter=0.0)
    )
    completed, abandoned = [], []
    net.on_abandon = abandoned.append
    f = net.start_flow(0, 4, GB, on_complete=lambda fl: completed.append(fl))
    net.run()
    assert f.abandoned and abandoned == [f] and not completed
    assert f.attempts == 3
    rep = net.fault_report()
    assert rep.fatal and rep.n_abandoned == 1
    assert [s.attrs["status"] for s in net.bus.spans if s.cat == "flow"] == [
        "failed", "failed", "abandoned"
    ]
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
    assert not hasattr(plain, "fault_report")
    assert nofault.fault_report().status == "clean"
    assert plain.bus.span_rows == nofault.bus.span_rows


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
        compile_resharding(task, cache=None, faults=faults).plan,
        faults=faults,
        retry_policy=chaos.POLICY,
    )
    assert res.fault_report.status == "clean"
    assert res.corrupted_ops == () and res.unverified_corruption == ()
    assert res.total_time == clean.total_time
    assert res.network.loop.processed == clean.network.loop.processed
    assert res.network.bus.digest() == clean.network.bus.digest()


# ----------------------------------------------------------------------
# Satellites: mean_nic_factor coverage, shifted() clipping
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


# ----------------------------------------------------------------------
# Invariants of the shared interval base
# ----------------------------------------------------------------------
def every_kind_schedule() -> FaultSchedule:
    return FaultSchedule(
        seed=3,
        degradations=(DegradedWindow(0, 1.0, 2.0, 0.5),),
        flaps=(FlapWindow(1, 0.5, 1.5),),
        drop_rate=0.25,
        host_failures=(HostFailure(2, 4.0),),
        domain_failures=(
            DomainFailure("rack0", (0, 1), 3.0, None),
            DomainFailure("rack1", (2, 3), 1.0, 2.5),
        ),
        partitions=(Partition((0,), (1, 2), 1.0, 1.0),),
        corruptions=(CorruptionWindow(2, 0.0, 5.0, 0.5),),
    )


def test_schedule_repr_is_pinned():
    # repr(FaultSchedule) keys the plan cache and the strategy cache
    # keys: a reordered or added field would silently re-key both.
    assert repr(every_kind_schedule()) == (
        "FaultSchedule(seed=3, "
        "degradations=(DegradedWindow(host=0, start=1.0, duration=2.0, factor=0.5),), "
        "flaps=(FlapWindow(host=1, start=0.5, duration=1.5),), "
        "drop_rate=0.25, "
        "host_failures=(HostFailure(host=2, time=4.0),), "
        "domain_failures=(DomainFailure(domain='rack0', hosts=(0, 1), time=3.0, "
        "duration=None), DomainFailure(domain='rack1', hosts=(2, 3), time=1.0, "
        "duration=2.5)), "
        "partitions=(Partition(src_hosts=(0,), dst_hosts=(1, 2), start=1.0, duration=1.0),), "
        "corruptions=(CorruptionWindow(host=2, start=0.0, duration=5.0, rate=0.5),))"
    )


def test_outage_view_ranks_domain_over_host_over_flap():
    fs = every_kind_schedule()
    assert set(fs.outages) == {0, 1, 2, 3}
    # Host 2: rack1 outage [1, 3.5) and a host death at 4.0.
    assert fs.outage_at(2, 0.5) is None
    assert fs.outage_at(2, 2.0) == fs.domain_failures[1]
    assert fs.failed_domain_of(2, 2.0) == "rack1"
    assert fs.outage_at(2, 5.0) == fs.host_failures[0]
    assert fs.failed_domain_of(2, 5.0) is None
    # Host 1: flap [0.5, 2.0), then rack0 dies for good at 3.0.
    assert fs.outage_at(1, 1.0) == fs.flaps[0]
    assert not fs.host_dead(1, 2.5) and not fs.host_down(1, 2.5)
    assert fs.outage_at(1, 3.0) == fs.domain_failures[0]
    assert [h for h in range(4) if fs.host_dead(h, 4.0)] == [0, 1, 2]
    assert fs.first_host_failure() == HostFailure(0, 3.0)
    assert fs.first_host_failure(after=3.5) == HostFailure(2, 4.0)


@pytest.mark.parametrize("seed", range(8))
def test_shifted_answers_every_query_as_the_original_does_later(seed):
    from repro.sim.cluster import FailureDomain
    from repro.sim.faults import FAULT_KINDS

    n_hosts = 4
    s = FaultSchedule.generate(
        seed,
        n_hosts=n_hosts,
        horizon=10.0,
        n_degradations=3,
        n_flaps=2,
        drop_rate=0.1,
        n_host_failures=2,
        domains=(FailureDomain("r0", (0, 1)), FailureDomain("r1", (2, 3))),
        n_domain_failures=2,
        n_partitions=2,
        n_corruptions=2,
    )
    faults = [f for name in FAULT_KINDS for f in getattr(s, name)]
    assert all(getattr(s, name) for name in FAULT_KINDS)
    mids = sorted(
        f.onset + 1.0 if f.permanent else (f.onset + f.end) / 2 for f in faults
    )

    def answers(fs: FaultSchedule, t: float):
        hosts = range(n_hosts)
        return (
            [fs.host_down(h, t) for h in hosts],
            [fs.host_dead(h, t) for h in hosts],
            [fs.nic_factor(h, t) for h in hosts],
            [fs.partitioned(a, b, t) for a in hosts for b in hosts],
        )

    for origin in (0.5, 2.0, 5.0, 8.0):
        view = s.shifted(origin)
        for m in mids:
            if m > origin:
                t = m - origin
                assert answers(view, t) == answers(s, t + origin), (origin, m)


@pytest.mark.parametrize(
    "field, build",
    [
        ("host", lambda: DegradedWindow(host=1.5, start=0.0, duration=1.0, factor=0.5)),
        ("seed", lambda: FaultSchedule(seed=1.5)),
        ("drop_rate", lambda: FaultSchedule(drop_rate="0.1")),
        ("n_hosts", lambda: FaultSchedule.generate(seed=0, n_hosts=2.5, horizon=1.0)),
    ],
)
def test_schedule_numbers_are_checked_where_they_enter(field, build):
    """A fractional host or seed used to build a schedule, a string drop
    rate failed with a bare ``TypeError``, and ``generate``'s fractional
    host count failed inside ``randrange`` with a message naming no
    parameter."""
    with pytest.raises(ValueError, match=field):
        build()


@pytest.mark.parametrize("horizon, frac", [(5e-324, 0.25), (10.0, 1e308)])
def test_generate_rejects_a_window_length_that_underflows_or_overflows(horizon, frac):
    # both used to fail on a generated window's duration (0.0 or NaN),
    # naming neither argument
    with pytest.raises(ValueError, match="max_window_frac x horizon"):
        FaultSchedule.generate(seed=0, n_hosts=4, horizon=horizon, max_window_frac=frac)


def test_generate_takes_a_numpy_seed():
    # random.Random refused np.int64 with a bare TypeError
    import numpy as np

    assert FaultSchedule.generate(seed=np.int64(3), n_hosts=4, horizon=1.0) == (
        FaultSchedule.generate(seed=3, n_hosts=4, horizon=1.0)
    )


# ----------------------------------------------------------------------
# HostFailure semantics
# ----------------------------------------------------------------------
class TestHostFailure:
    def test_dead_is_forever(self):
        fs = FaultSchedule(host_failures=(HostFailure(host=1, time=5.0),))
        assert not fs.host_dead(1, 4.9)
        assert fs.host_dead(1, 5.0)
        assert fs.host_dead(1, 1e9)
        assert not fs.host_dead(0, 1e9)

    def test_host_down_includes_dead(self):
        fs = FaultSchedule(host_failures=(HostFailure(host=2, time=1.0),))
        assert fs.host_down(2, 2.0)
        assert fs.nic_factor(2, 3.0) == 0.0

    def test_first_host_failure_ordering(self):
        fs = FaultSchedule(
            host_failures=(HostFailure(1, 7.0), HostFailure(0, 3.0), HostFailure(2, 3.0))
        )
        assert fs.first_host_failure() == HostFailure(0, 3.0)
        assert fs.first_host_failure(after=3.5) == HostFailure(1, 7.0)
        assert fs.first_host_failure(after=8.0) is None

    def test_boundaries_and_horizon_include_failures(self):
        fs = FaultSchedule(host_failures=(HostFailure(0, 4.0),))
        assert 4.0 in fs.boundaries()
        assert fs.horizon() == 4.0

    def test_dead_host_mean_factor_floors(self):
        fs = FaultSchedule(host_failures=(HostFailure(0, 0.0),))
        # horizon is 0 (failure at t=0 has no end): dead host must stay
        # maximally unattractive, healthy hosts stay at 1.
        assert fs.mean_nic_factor(0) == pytest.approx(1e-6)
        assert fs.mean_nic_factor(1) == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            HostFailure(host=0, time=-1.0)

    def test_generate_draws_distinct_hosts(self):
        fs = FaultSchedule.generate(
            seed=5, n_hosts=4, horizon=100.0, n_host_failures=4
        )
        victims = [f.host for f in fs.host_failures]
        assert sorted(victims) == [0, 1, 2, 3]
        assert fs == FaultSchedule.generate(
            seed=5, n_hosts=4, horizon=100.0, n_host_failures=4
        )

    def test_shifted_reanchors_failures(self):
        fs = FaultSchedule(
            seed=9,
            flaps=(FlapWindow(host=0, start=5.0, duration=4.0),),
            host_failures=(HostFailure(1, 2.0), HostFailure(2, 10.0)),
        )
        sh = fs.shifted(6.0)
        assert sh.seed == 9
        # past failure stays dead at t=0, future failure moves earlier
        assert sh.host_failures == (HostFailure(1, 0.0), HostFailure(2, 4.0))
        # straddling flap is clipped to its remaining duration
        assert sh.flaps == (FlapWindow(host=0, start=0.0, duration=3.0),)
        assert fs.shifted(0.0) is fs
        with pytest.raises(ValueError):
            fs.shifted(-1.0)


# ----------------------------------------------------------------------
# escalate + blocked tasks
# ----------------------------------------------------------------------
class TestEscalation:
    def test_escalate_records_provenance(self):
        rep = FaultReport(status="recovered", detail="retried ok")
        rep.escalate("ops never delivered")
        assert rep.status == "fatal"
        assert rep.escalations == ["recovered->fatal: ops never delivered"]
        assert "retried ok; ops never delivered" == rep.detail
        rep.escalate("second look")
        assert rep.escalations[-1] == "fatal->fatal: second look"

    def test_escalate_requires_detail(self):
        with pytest.raises(ValueError):
            FaultReport(status="clean").escalate("")

    def test_blocked_tasks_dropped_from_finish(self, cluster4x4):
        src = DeviceMesh.from_hosts(cluster4x4, [0, 1])
        dst = DeviceMesh.from_hosts(cluster4x4, [2, 3])
        task = ReshardingTask((64, 64), src, "S0R", dst, "RS1")
        plan = BroadcastStrategy().plan(task)  # fault-blind plan
        faults = FaultSchedule(
            seed=0, flaps=(FlapWindow(host=0, start=0.0, duration=1e6),)
        )
        res = simulate_plan(
            plan,
            faults=faults,
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=1e-4),
        )
        assert res.failed_ops and res.blocked_tasks
        # blocked tasks have no finish time and all their ops failed
        ops_by_task: dict[int, list[int]] = {}
        for op in plan.ops:
            ops_by_task.setdefault(op.unit_task_id, []).append(op.op_id)
        for tid in res.blocked_tasks:
            assert tid not in res.task_finish
            assert all(o in res.failed_ops for o in ops_by_task[tid])
        assert res.fault_report.fatal
        assert any("blocked behind" in e for e in res.fault_report.escalations)
