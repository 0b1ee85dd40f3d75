"""Correlated failure domains, gray failures, and domain-aware planning.

Covers the failure-domain tentpole end to end:

* :class:`~repro.sim.cluster.FailureDomain` topology on ``ClusterSpec``;
* the correlated/gray event classes — :class:`DomainFailure` (a rack
  dies together), :class:`Partition` (asymmetric reachability), and
  :class:`CorruptionWindow` (flows complete on time, deliver bad bytes);
* their network semantics, including causal fault attribution;
* detection: per-slice checksums catching corruption as a first-class
  category, and the never-silent guarantee (checksum-less corruption is
  *unverifiable* and refuses certification loudly);
* domain-aware placement: the F001/F003 plan diagnostics.
"""

import json
import pathlib

import pytest

from repro.analysis import check_plan, load_plan_fixture
from repro.core.executor import simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.core.verify_data import IntegrityError, verify_delivery
from repro.compiler import CompileContext, compile_resharding
from repro.sim import Cluster, ClusterSpec, GB, LossyNetwork, Network
from repro.sim.cluster import FailureDomain
from repro.sim.faults import (
    CorruptionWindow,
    DomainFailure,
    FaultSchedule,
    Partition,
    RetryPolicy,
)
from repro.strategies import BroadcastStrategy

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "bad_plans"


def domain_cluster(n_hosts=4, devices_per_host=2, **kw):
    if "failure_domains" in kw:
        domains = kw.pop("failure_domains")
    else:
        domains = (
            FailureDomain("rack0", (0, 1)),
            FailureDomain("rack1", tuple(range(2, n_hosts))),
        )
    return Cluster(
        ClusterSpec(
            n_hosts=n_hosts,
            devices_per_host=devices_per_host,
            failure_domains=domains,
            inter_host_latency=0.0,
            intra_host_latency=0.0,
            **kw,
        )
    )


def make_net(faults=None, policy=None, **kw) -> Network:
    cluster = domain_cluster(**kw)
    return Network(cluster) if faults is None else LossyNetwork(cluster, faults, policy)


# ----------------------------------------------------------------------
# FailureDomain topology on ClusterSpec
# ----------------------------------------------------------------------
class TestFailureDomainTopology:
    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            FailureDomain("", (0,))
        with pytest.raises(ValueError, match="member hosts"):
            FailureDomain("rack0", ())
        with pytest.raises(ValueError, match="twice"):
            FailureDomain("rack0", (0, 0))

    def test_spec_lookup_helpers(self):
        spec = domain_cluster().spec
        assert [d.name for d in spec.domains_of_host(1)] == ["rack0"]
        assert spec.shares_domain(0, 1)
        assert not spec.shares_domain(1, 2)
        # A host is trivially in every domain it is in ("shares" with self).
        assert spec.shares_domain(2, 2)

    def test_overlapping_kinds(self):
        # One host can sit in a rack domain AND a pdu domain; sharing
        # either one counts.
        spec = domain_cluster(
            failure_domains=(
                FailureDomain("rack0", (0, 1), kind="rack"),
                FailureDomain("pdu-a", (1, 2), kind="pdu"),
            )
        ).spec
        assert spec.shares_domain(0, 1) and spec.shares_domain(1, 2)
        assert not spec.shares_domain(0, 2)
        assert {d.name for d in spec.domains_of_host(1)} == {"rack0", "pdu-a"}

    def test_no_domains_shares_nothing(self):
        spec = Cluster(ClusterSpec(n_hosts=4, devices_per_host=2)).spec
        assert not spec.shares_domain(0, 1)
        assert spec.domains_of_host(0) == ()


# ----------------------------------------------------------------------
# DomainFailure schedule semantics
# ----------------------------------------------------------------------
class TestDomainFailureSchedule:
    def test_permanent_downs_all_members_forever(self):
        fs = FaultSchedule(
            domain_failures=(DomainFailure("rack0", (0, 1), 2.0, None),)
        )
        for h in (0, 1):
            assert not fs.host_down(h, 1.9)
            assert fs.host_down(h, 2.0) and fs.host_down(h, 1e9)
        assert not fs.host_down(2, 1e9)
        assert [h for h in range(4) if fs.host_dead(h, 3.0)] == [0, 1]
        assert fs.failed_domain_of(1, 3.0) == "rack0"
        assert fs.failed_domain_of(1, 1.0) is None
        assert fs.failed_domain_of(2, 3.0) is None

    def test_window_outage_recovers(self):
        fs = FaultSchedule(
            domain_failures=(DomainFailure("rack0", (0, 1), 2.0, 3.0),)
        )
        assert fs.host_down(0, 3.0) and fs.host_down(1, 4.9)
        assert not fs.host_down(0, 5.0)  # switch rebooted
        assert 2.0 in fs.boundaries() and 5.0 in fs.boundaries()

    def test_permanent_domain_counts_as_first_host_failure(self):
        fs = FaultSchedule(
            domain_failures=(DomainFailure("rack0", (3, 1), 2.0, None),)
        )
        strike = fs.first_host_failure()
        # Reported as the lowest member host, so the fuzzer's replan view
        # re-anchors at a rack loss like at a lone host death.
        assert strike is not None
        assert (strike.host, strike.time) == (1, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="downs no hosts"):
            DomainFailure("rack0", (), 0.0, None)
        with pytest.raises(ValueError, match="duration"):
            DomainFailure("rack0", (0,), 0.0, 0.0)
        with pytest.raises(ValueError, match="time"):
            DomainFailure("rack0", (0,), -1.0, None)


# ----------------------------------------------------------------------
# Network semantics of the three new event classes
# ----------------------------------------------------------------------
class TestNetworkDomainFailure:
    def test_correlated_outage_kills_member_flows_with_domain_kind(self):
        fs = FaultSchedule(
            domain_failures=(DomainFailure("rack0", (0, 1), 0.0, None),)
        )
        net = make_net(faults=fs, policy=RetryPolicy(max_attempts=2,
                                                     backoff_base=1e-3,
                                                     jitter=0.0))
        # host 1 (devices 2-3) is in the failed domain; host 2/3 are not.
        f_dead = net.start_flow(2, 6, GB)
        f_ok = net.start_flow(4, 6, GB)
        net.run()
        assert f_dead.abandoned and not f_ok.abandoned
        rep = net.fault_report()
        assert rep.fatal
        assert any(i.kind == "domain-down" for i in rep.incidents)

    def test_domain_down_outranks_flap_in_attribution(self):
        # Causal attribution: when a whole rack is down, a member's
        # flap window must not claim the incident.
        from repro.sim.faults import FlapWindow

        fs = FaultSchedule(
            domain_failures=(DomainFailure("rack0", (0, 1), 0.0, 10.0),),
            flaps=(FlapWindow(host=1, start=0.0, duration=10.0),),
        )
        net = make_net(faults=fs, policy=RetryPolicy(max_attempts=2,
                                                     backoff_base=1e-3,
                                                     jitter=0.0))
        net.start_flow(2, 6, GB)
        net.run()
        kinds = {i.kind for i in net.fault_report().incidents}
        assert "domain-down" in kinds and "nic-flap" not in kinds


class TestNetworkPartition:
    def test_partition_is_directional(self):
        fs = FaultSchedule(
            partitions=(Partition((0,), (1,), 0.0, 1e9),)
        )
        net = make_net(faults=fs, policy=RetryPolicy(max_attempts=2,
                                                     backoff_base=1e-3,
                                                     jitter=0.0))
        blocked = net.start_flow(0, 2, GB)   # host 0 -> host 1: blocked
        reverse = net.start_flow(2, 0, GB)   # host 1 -> host 0: fine
        bystander = net.start_flow(0, 4, GB)  # host 0 -> host 2: fine
        net.run()
        assert blocked.abandoned
        assert not reverse.abandoned and not bystander.abandoned
        rep = net.fault_report()
        assert any(i.kind == "partition" for i in rep.incidents)

    def test_partition_window_heals(self):
        fs = FaultSchedule(partitions=(Partition((0,), (1,), 0.0, 0.05),))
        T = GB / make_net().cluster.spec.inter_host_bandwidth
        net = make_net(
            faults=fs,
            policy=RetryPolicy(max_attempts=20, backoff_base=0.03, jitter=0.0),
        )
        f = net.start_flow(0, 2, GB)
        net.run()
        assert not f.abandoned
        assert f.finish_time >= 0.05  # had to wait out the partition
        assert net.fault_report().status == "recovered"

    def test_partitioned_predicate(self):
        fs = FaultSchedule(partitions=(Partition((0, 1), (2,), 1.0, 2.0),))
        assert fs.partitioned(0, 2, 1.5) and fs.partitioned(1, 2, 1.5)
        assert not fs.partitioned(2, 0, 1.5)  # reverse path fine
        assert not fs.partitioned(0, 2, 0.5)  # before the window
        assert not fs.partitioned(0, 2, 3.0)  # after it


class TestNetworkCorruption:
    def test_gray_corruption_completes_on_time(self):
        fs = FaultSchedule(
            corruptions=(CorruptionWindow(host=1, start=0.0, duration=1e9,
                                          rate=1.0 - 1e-12),)
        )
        clean = make_net()
        g = clean.start_flow(0, 2, GB)
        clean.run()
        net = make_net(faults=fs)
        f = net.start_flow(0, 2, GB)
        net.run()
        # The point of a gray failure: timing is indistinguishable.
        assert f.finish_time == g.finish_time
        assert not f.abandoned and f.attempts == 1
        assert len(net.corrupted_flows) == 1
        statuses = [
            s.attrs["status"]
            for s in net.bus.spans
            if s.cat == "flow" and s.attrs["flow_id"] == f.flow_id
        ]
        assert statuses[-1] == "corrupted"
        rep = net.fault_report()
        # Flow-level status stays healthy-looking; only the incident
        # list (and downstream checksums) reveal the corruption.
        assert rep.status == "clean"
        assert [i.kind for i in rep.incidents] == ["corruption"]

    def test_corruption_rate_is_seeded_and_partial(self):
        fs = FaultSchedule(
            seed=5,
            corruptions=(CorruptionWindow(host=1, start=0.0, duration=1e9,
                                          rate=0.5),),
        )
        draws = [fs.should_corrupt((0, 1), 0.0, i) for i in range(2000)]
        assert draws == [fs.should_corrupt((0, 1), 0.0, i) for i in range(2000)]
        rate = sum(draws) / len(draws)
        assert 0.42 < rate < 0.58
        # Outside the window nothing corrupts.
        assert not any(fs.should_corrupt((0, 1), -1.0, i) for i in range(50))

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            CorruptionWindow(host=0, start=0.0, duration=1.0, rate=0.0)
        with pytest.raises(ValueError, match="rate"):
            CorruptionWindow(host=0, start=0.0, duration=1.0, rate=1.5)


# ----------------------------------------------------------------------
# Detection: checksums and the never-silent guarantee
# ----------------------------------------------------------------------
def corrupting_schedule(dst_hosts):
    return FaultSchedule(
        seed=0,
        corruptions=tuple(
            CorruptionWindow(host=h, start=0.0, duration=1e9, rate=1.0 - 1e-12)
            for h in dst_hosts
        ),
    )


def broadcast_task():
    cluster = domain_cluster()
    src = DeviceMesh.from_hosts(cluster, [0, 1])
    dst = DeviceMesh.from_hosts(cluster, [2, 3])
    return ReshardingTask((64, 64), src, "S0R", dst, "RS0")


class TestCorruptionDetection:
    def test_compiled_plan_detects_corruption_via_checksums(self):
        task = broadcast_task()
        faults = corrupting_schedule([2, 3])
        compiled = compile_resharding(
            task, CompileContext(strategy=BroadcastStrategy(), faults=faults,
                                 cache=None)
        )
        plan = compiled.plan
        assert all(op.checksum for op in plan.ops)  # EmitPass stamped them
        timing = simulate_plan(plan, faults=faults, retry_policy=RetryPolicy())
        assert timing.corrupted_ops and not timing.unverified_corruption
        # Checksummed detection escalates the report: loud, never gray.
        assert timing.fault_report.fatal
        assert timing.fault_report.escalations
        # Detected corruption earns no delivery credit -> gaps -> raises.
        with pytest.raises(IntegrityError, match="missing data"):
            verify_delivery(plan, timing)
        report = verify_delivery(plan, timing, raise_on_error=False)
        assert not report.certified
        assert report.corrupted_ops == timing.corrupted_ops

    def test_checksum_less_plan_is_never_silently_certified(self):
        # A hand-built plan (no compiler emit pass) has no checksums:
        # corruption through it is undetectable in-band, so the verifier
        # must refuse certification *loudly* — this is the one outcome
        # the integrity layer exists to make impossible.
        task = broadcast_task()
        faults = corrupting_schedule([2, 3])
        from dataclasses import replace

        compiled = BroadcastStrategy().plan(task)
        plan = replace(
            compiled,
            ops=tuple(replace(op, checksum="") for op in compiled.ops),
        )
        assert all(not op.checksum for op in plan.ops)
        timing = simulate_plan(plan, faults=faults, retry_policy=RetryPolicy())
        assert timing.unverified_corruption and not timing.corrupted_ops
        # The unverifiable-corruption error outranks every other finding.
        with pytest.raises(IntegrityError, match="silent corruption possible"):
            verify_delivery(plan, timing)
        report = verify_delivery(plan, timing, raise_on_error=False)
        assert not report.certified
        assert report.unverifiable_ops == timing.unverified_corruption

    def test_clean_run_certifies_with_checksums_present(self):
        task = broadcast_task()
        compiled = compile_resharding(
            task, CompileContext(strategy=BroadcastStrategy(), cache=None)
        )
        timing = simulate_plan(compiled.plan)
        assert timing.corrupted_ops == () and timing.unverified_corruption == ()
        assert verify_delivery(compiled.plan, timing).certified


# ----------------------------------------------------------------------
# Domain-aware placement: F001 / F003
# ----------------------------------------------------------------------
class TestDomainDiagnostics:
    def test_f001_fixture_rejected(self):
        fixture = load_plan_fixture(FIXTURES / "f001_reroot_same_domain.json")
        report = check_plan(fixture.plan)
        assert "F001" in report.codes
        assert any(d.code == "F001" for d in report.errors)

    def test_f003_scheduled_sender_in_failed_domain(self):
        fixture = load_plan_fixture(FIXTURES / "f001_reroot_same_domain.json")
        faults = FaultSchedule(
            domain_failures=(DomainFailure("rack0", (0, 1), 0.0, None),)
        )
        report = check_plan(fixture.plan, faults=faults)
        # The schedule assigns the op to host 1, inside the failed
        # rack0, while live out-of-domain sender host 2 exists.
        assert "F003" in report.codes
        assert any(d.code == "F003" for d in report.errors)

    def test_f003_quiet_without_faults_or_without_failed_domains(self):
        fixture = load_plan_fixture(FIXTURES / "f001_reroot_same_domain.json")
        assert "F003" not in check_plan(fixture.plan).codes
        healthy = FaultSchedule(
            domain_failures=(DomainFailure("rack1", (2, 3), 50.0, 1.0),)
        )
        # rack1 fails long after t=0 scheduling; nothing to flag.
        assert "F003" not in check_plan(fixture.plan, faults=healthy).codes


# ----------------------------------------------------------------------
# Loader round-trips failure domains
# ----------------------------------------------------------------------
def test_fixture_loader_parses_failure_domains():
    raw = json.loads(
        (FIXTURES / "f001_reroot_same_domain.json").read_text(encoding="utf-8")
    )
    fixture = load_plan_fixture(FIXTURES / "f001_reroot_same_domain.json")
    spec = fixture.plan.task.cluster.spec
    assert [d["name"] for d in raw["cluster"]["failure_domains"]] == [
        d.name for d in spec.failure_domains
    ]
    assert spec.shares_domain(0, 1) and not spec.shares_domain(1, 2)
