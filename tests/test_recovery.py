"""Tests for permanent host failures and the elastic recovery runtime."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.executor import simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.models.gpt import GPTConfig, build_gpt
from repro.recovery import (
    CheckpointConfig,
    CheckpointStore,
    RecoveryError,
    optimal_interval,
    place_stages,
    replan,
    simulate_training_run,
)
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.faults import (
    DomainFailure,
    FaultReport,
    FaultSchedule,
    FlapWindow,
    HostFailure,
    RetryPolicy,
)
from repro.strategies import BroadcastStrategy


def small_job(n_hosts=3, n_spares=1):
    cluster = Cluster(
        ClusterSpec(n_hosts=n_hosts, devices_per_host=4, n_spare_hosts=n_spares)
    )
    config = GPTConfig(name="GPT-small", n_layers=4, hidden=1024, dp=2, op=2, pp=2)
    return build_gpt(config, cluster=cluster)


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
        assert fs.failed_hosts(4.0) == frozenset()
        assert fs.failed_hosts(6.0) == frozenset({1})

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
# spare hosts
# ----------------------------------------------------------------------
class TestSpareHosts:
    def test_spares_are_trailing_hosts(self):
        cluster = Cluster(ClusterSpec(n_hosts=4, devices_per_host=2, n_spare_hosts=1))
        assert cluster.spec.n_active_hosts == 3
        assert cluster.spare_host_ids == (3,)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_hosts=2, n_spare_hosts=2)
        with pytest.raises(ValueError):
            ClusterSpec(n_hosts=2, n_spare_hosts=-1)


# ----------------------------------------------------------------------
# escalate + blocked tasks (executor satellites)
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


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_write_cost_is_max_over_hosts(self):
        cluster = Cluster(ClusterSpec(n_hosts=2, devices_per_host=2))
        meshes = [
            DeviceMesh.from_hosts(cluster, [0]),
            DeviceMesh.from_hosts(cluster, [1]),
        ]
        state = {s: np.zeros(1024, dtype=np.float32) for s in range(2)}
        store = CheckpointStore(
            CheckpointConfig(interval=1, write_bandwidth=1e6, replicate=True)
        )
        cost = store.write(0, 0.0, state, meshes)
        # each host writes its own 4 KiB shard set plus the buddy's
        assert cost == pytest.approx(2 * 4096 / 1e6)
        assert store.latest is not None
        assert store.latest.iteration == 0
        store.latest.arrays[0][:] = -1.0
        assert not np.any(state[0] == -1.0), "checkpoint must be a copy"

    def test_replicas(self):
        cluster = Cluster(ClusterSpec(n_hosts=2, devices_per_host=2))
        meshes = [
            DeviceMesh.from_hosts(cluster, [0]),
            DeviceMesh.from_hosts(cluster, [1]),
        ]
        store = CheckpointStore(CheckpointConfig(interval=1, replicate=True))
        store.write(3, 1.0, {0: np.zeros(8), 1: np.zeros(8)}, meshes)
        ck = store.latest
        assert [m.hosts for m in ck.replicas_of(0)] == [(0,), (1,)]
        assert [m.hosts for m in ck.replicas_of(1)] == [(1,), (0,)]

    @pytest.mark.parametrize(
        "field, value",
        [("interval", float("nan")), ("interval", 2.5),
         ("write_bandwidth", float("nan")), ("detection_latency", float("nan"))],
    )
    def test_config_rejects_nan_and_fractional_interval(self, field, value):
        # each of these used to build a config
        with pytest.raises(ValueError, match=field):
            CheckpointConfig(**{field: value})

    def test_interval_zero_disables(self):
        store = CheckpointStore(CheckpointConfig(interval=0))
        assert store.write(0, 0.0, {0: np.zeros(4)}, []) == 0.0
        assert store.latest is None and store.n_writes == 0

    def test_young_daly(self):
        assert optimal_interval(mtbf=100.0, checkpoint_cost=2.0) == pytest.approx(
            20.0
        )
        with pytest.raises(ValueError):
            optimal_interval(0.0, 1.0)


# ----------------------------------------------------------------------
# replanning
# ----------------------------------------------------------------------
class TestReplan:
    def test_place_stages_shrinks_by_splitting(self):
        cluster = Cluster(ClusterSpec(n_hosts=2, devices_per_host=4))
        meshes = place_stages(cluster, 2, [0])
        assert [m.devices for m in meshes] == [(0, 1), (2, 3)]
        with pytest.raises(RecoveryError):
            place_stages(cluster, 9, [0])
        with pytest.raises(RecoveryError):
            place_stages(cluster, 1, [])

    def test_substitute_preserves_mesh_shape(self):
        spec = small_job()
        faults = FaultSchedule(host_failures=(HostFailure(1, 10.0),))
        rep = simulate_training_run(
            spec, 6, faults=faults, config=CheckpointConfig(interval=2)
        )
        (event,) = rep.events
        assert event.mode == "substitute"
        assert event.promoted_spares == (2,)
        assert event.certified

    def test_rack_loss_recovers_like_its_host_failure(self):
        # A permanent domain failure strikes the supervisor through the
        # same outage view as a lone host death: same recovery, same run.
        spec = small_job()
        config = CheckpointConfig(interval=2)
        host = simulate_training_run(
            spec, 6, faults=FaultSchedule(host_failures=(HostFailure(1, 10.0),)),
            config=config,
        )
        rack = simulate_training_run(
            spec,
            6,
            faults=FaultSchedule(
                domain_failures=(DomainFailure("rack1", (1,), 10.0, None),)
            ),
            config=config,
        )
        assert len(rack.events) == 1
        assert rack.events == host.events
        assert rack.total_time == host.total_time == 33.40112666120207
        assert rack.state_digest == host.state_digest

    def test_unrecoverable_without_replication(self):
        spec = small_job(n_hosts=2, n_spares=0)
        faults = FaultSchedule(host_failures=(HostFailure(1, 10.0),))
        config = CheckpointConfig(interval=2, replicate=False)
        with pytest.raises(RecoveryError, match="unrecoverable"):
            simulate_training_run(spec, 8, faults=faults, config=config)

    def test_failure_without_checkpoint_is_loud(self):
        spec = small_job()
        faults = FaultSchedule(host_failures=(HostFailure(1, 1.0),))
        with pytest.raises(RecoveryError, match="no checkpoint"):
            simulate_training_run(
                spec, 4, faults=faults, config=CheckpointConfig(interval=0)
            )


# ----------------------------------------------------------------------
# the end-to-end acceptance scenario
# ----------------------------------------------------------------------
class TestTrainingRun:
    def test_fault_free_run_has_no_recovery_overhead(self):
        spec = small_job()
        rep = simulate_training_run(spec, 5, config=CheckpointConfig(interval=0))
        assert rep.completed and rep.n_restarts == 0
        assert rep.total_time == pytest.approx(rep.ideal_time)
        assert rep.overhead == pytest.approx(0.0)

    def test_recovers_through_permanent_host_loss(self):
        """A seeded run with a mid-training permanent failure completes
        all iterations via recovery: >= 1 restart, nonzero reshard
        phase, certified delivery, and a final state bit-identical to
        the fault-free run's."""
        spec = small_job()
        baseline = simulate_training_run(spec, 10, config=CheckpointConfig(interval=3))
        faults = FaultSchedule(
            host_failures=(HostFailure(host=1, time=baseline.total_time * 0.45),)
        )
        rep = simulate_training_run(
            spec, 10, faults=faults, config=CheckpointConfig(interval=3)
        )
        assert rep.completed
        assert rep.iterations_completed == 10
        assert rep.n_restarts >= 1
        assert rep.time_reshard > 0.0
        assert all(e.certified for e in rep.events)
        assert rep.events[0].rollback_iterations >= 1
        assert rep.total_time > baseline.total_time
        assert rep.state_digest == baseline.state_digest

    def test_shrink_after_spare_exhaustion(self):
        spec = small_job(n_hosts=3, n_spares=1)
        faults = FaultSchedule(
            host_failures=(HostFailure(1, 20.0), HostFailure(2, 60.0))
        )
        rep = simulate_training_run(
            spec, 12, faults=faults, config=CheckpointConfig(interval=3)
        )
        assert rep.completed
        assert [e.mode for e in rep.events] == ["substitute", "shrink"]
        baseline = simulate_training_run(spec, 12, config=CheckpointConfig(interval=3))
        assert rep.state_digest == baseline.state_digest

    def test_max_restarts_aborts_cleanly(self):
        spec = small_job(n_hosts=3, n_spares=1)
        faults = FaultSchedule(
            host_failures=(HostFailure(1, 20.0), HostFailure(2, 30.0))
        )
        rep = simulate_training_run(
            spec, 50, faults=faults, config=CheckpointConfig(interval=3), max_restarts=1
        )
        assert not rep.completed
        assert rep.n_restarts == 1
        assert "restart" in rep.aborted_reason
        assert rep.iterations_completed < 50

    def test_spare_dying_idle_is_benign(self):
        spec = small_job(n_hosts=3, n_spares=1)
        faults = FaultSchedule(host_failures=(HostFailure(2, 1.0),))
        rep = simulate_training_run(
            spec, 4, faults=faults, config=CheckpointConfig(interval=2)
        )
        assert rep.completed and rep.n_restarts == 0

    def test_byte_determinism_across_processes(self, tmp_path):
        """The acceptance bar: two fresh interpreter processes produce
        identical digests and simulated clocks for the same seed."""
        script = textwrap.dedent(
            """
            import json, sys
            from repro.models.gpt import GPTConfig, build_gpt
            from repro.recovery import CheckpointConfig, simulate_training_run
            from repro.sim.cluster import Cluster, ClusterSpec
            from repro.sim.faults import FaultSchedule, HostFailure

            cluster = Cluster(
                ClusterSpec(n_hosts=3, devices_per_host=4, n_spare_hosts=1)
            )
            cfg = GPTConfig(
                name="GPT-small", n_layers=4, hidden=1024, dp=2, op=2, pp=2
            )
            spec = build_gpt(cfg, cluster=cluster)
            faults = FaultSchedule(host_failures=(HostFailure(1, 10.0),))
            rep = simulate_training_run(
                spec, 8, faults=faults, config=CheckpointConfig(interval=2), seed=11
            )
            print(json.dumps({
                "digest": rep.state_digest,
                "total": rep.total_time,
                "restarts": rep.n_restarts,
            }))
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        outs = []
        for run in range(2):
            env["PYTHONHASHSEED"] = str(run)  # hash seed must not matter
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        assert outs[0] == outs[1]
        assert outs[0]["restarts"] >= 1
