"""Fault tolerance end to end: determinism, correctness, and recovery.

Three guarantees under chaos:

1. *Determinism* — a fault schedule is pure data; replaying the same
   seed yields byte-identical flow traces and makespans (satellite of
   the fault-injection tentpole, and the property every debugging
   session depends on).
2. *Correctness* — plans compiled under a fault schedule still deliver
   exactly the destination slices (static coverage proof + NumPy data
   plane), including re-rooted broadcasts.
3. *Recovery* — recoverable faults end in a ``recovered`` FaultReport
   with the run complete; unrecoverable ones end ``fatal`` instead of
   hanging.
"""

import numpy as np
import pytest

from repro.compiler import CompileContext, compile_resharding
from repro.core.data import apply_plan
from repro.core.executor import simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.core.tensor import DistributedTensor
from repro.core.validate import raise_on_plan_errors
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.faults import (
    DegradedWindow,
    FaultSchedule,
    FlapWindow,
    RetryPolicy,
)
from repro.strategies import (
    AllGatherStrategy,
    AutoStrategy,
    BroadcastStrategy,
    SendRecvStrategy,
)


def build(src_spec="S0RR", dst_spec="RS1R", shape=(8, 8, 8)):
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    arr = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
    task = ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=arr.dtype)
    return task, DistributedTensor.from_global(src, task.src_spec, arr), arr


def plan_under(strategy, task, faults, retry_policy=None):
    """Compile ``task`` uncached with ``faults`` on the context."""
    ctx = CompileContext(
        strategy=strategy, faults=faults, retry_policy=retry_policy, cache=None
    )
    return compile_resharding(task, ctx).plan


def trace_tuple(network):
    return [
        (s.start, s.end, *s.attrs.values())
        for s in network.bus.spans
        if s.cat == "flow"
    ]


RECOVERABLE = FaultSchedule(
    seed=7,
    degradations=(DegradedWindow(host=2, start=0.0, duration=5.0, factor=0.5),),
    flaps=(FlapWindow(host=1, start=0.005, duration=0.01),),
    drop_rate=0.02,
)
PATIENT = RetryPolicy(max_attempts=12, backoff_base=2e-3, jitter=0.25)


# ----------------------------------------------------------------------
# determinism under chaos
# ----------------------------------------------------------------------
def test_reshard_replay_is_byte_identical():
    task, _, _ = build("RRR", "S0RR")
    runs = []
    for _ in range(2):
        plan = plan_under(BroadcastStrategy(), task, RECOVERABLE)
        res = simulate_plan(plan, faults=RECOVERABLE, retry_policy=PATIENT)
        runs.append((res.total_time, trace_tuple(res.network)))
    assert runs[0][0] == runs[1][0]  # identical makespans, not approx
    assert runs[0][1] == runs[1][1]  # byte-identical flow traces

    other = FaultSchedule(
        seed=8,
        degradations=RECOVERABLE.degradations,
        flaps=RECOVERABLE.flaps,
        drop_rate=RECOVERABLE.drop_rate,
    )
    plan = plan_under(BroadcastStrategy(), task, other)
    res = simulate_plan(plan, faults=other, retry_policy=PATIENT)
    # Different seed -> different drop draws somewhere in the trace.
    assert trace_tuple(res.network) != runs[0][1]


# ----------------------------------------------------------------------
# correctness under faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "strategy",
    [
        SendRecvStrategy(),
        AllGatherStrategy(),
        BroadcastStrategy(),
        AutoStrategy(),
    ],
    ids=["send_recv", "allgather", "broadcast", "auto"],
)
@pytest.mark.parametrize("specs", [("RRR", "S0RR"), ("S0RR", "RS1R")])
def test_strategies_deliver_exact_slices_under_faults(strategy, specs):
    task, src_tensor, arr = build(*specs)
    plan = plan_under(strategy, task, RECOVERABLE, PATIENT)
    raise_on_plan_errors(plan)
    out = apply_plan(plan, src_tensor)
    assert np.array_equal(out.to_global(), arr)
    res = simulate_plan(plan, faults=RECOVERABLE, retry_policy=PATIENT)
    assert not res.failed_ops and not res.corrupted_ops
    assert res.fault_report.status in ("clean", "recovered")


def test_broadcast_reroots_around_down_sender_host():
    # Host 0 is down at plan time, but only briefly: the long window on
    # a receiver host keeps host 0's *mean* factor high, so the
    # scheduler still assigns it work — which plan() must then re-root.
    fs = FaultSchedule(
        seed=0,
        flaps=(FlapWindow(host=0, start=0.0, duration=0.05),),
        degradations=(DegradedWindow(host=2, start=0.0, duration=10.0, factor=0.9),),
    )
    task, src_tensor, arr = build("RRR", "S0RR")
    plan = plan_under(BroadcastStrategy(), task, fs)
    assert plan.fallbacks, "expected at least one re-rooted unit task"
    for fb in plan.fallbacks:
        assert fb.reason == "sender-host-down"
        assert fb.from_host == 0 and fb.to_host == 1
    # No op may send from the downed host, and the schedule must agree
    # with the ops actually emitted (Eq. 3 gating stays consistent).
    for op in plan.ops:
        assert task.cluster.host_of(op.sender) != 0
        assert plan.schedule.assignment[op.unit_task_id] == task.cluster.host_of(
            op.sender
        )
    # Re-rooted plan is still a correct resharding.
    raise_on_plan_errors(plan)
    assert np.array_equal(apply_plan(plan, src_tensor).to_global(), arr)
    res = simulate_plan(plan, faults=fs, retry_policy=PATIENT)
    assert not res.failed_ops and not res.corrupted_ops
    assert not res.fault_report.fatal


def test_no_reroot_without_faults():
    task, _, _ = build("RRR", "S0RR")
    plan = BroadcastStrategy().plan(task)
    assert plan.fallbacks == []


def test_load_tracker_shifts_work_off_degraded_host():
    # Host 0 at 10% NIC speed: bandwidth-normalized load balancing must
    # push most sends to host 1 (equal split without faults).
    fs = FaultSchedule(
        seed=0,
        degradations=(DegradedWindow(host=0, start=0.0, duration=100.0, factor=0.1),),
    )
    task, _, _ = build("RRR", "S0RR")
    fair = SendRecvStrategy().plan(task)
    hosts = [task.cluster.host_of(op.sender) for op in fair.ops]
    assert hosts.count(0) == hosts.count(1)
    skewed = plan_under(SendRecvStrategy(), task, fs)
    hosts = [task.cluster.host_of(op.sender) for op in skewed.ops]
    assert hosts.count(1) > hosts.count(0)


def test_auto_strategy_avoids_fatal_candidate():
    # Under a harsh schedule a strategy can go fatal; auto must prefer a
    # surviving candidate even when the doomed one is nominally faster.
    fs = FaultSchedule(seed=5, flaps=(FlapWindow(host=1, start=0.0, duration=1e9),))
    brief = RetryPolicy(max_attempts=2, backoff_base=1e-4)
    task, _, _ = build("S0RR", "S0RR")
    auto = AutoStrategy()
    plan = plan_under(auto, task, fs, brief)
    res = simulate_plan(plan, faults=fs, retry_policy=brief)
    best_is_fatal = res.fault_report is not None and res.fault_report.fatal
    others_all_fatal = True
    for strat in auto.candidates:
        r = simulate_plan(plan_under(strat, task, fs), faults=fs, retry_policy=brief)
        if r.fault_report is None or not r.fault_report.fatal:
            others_all_fatal = False
    if best_is_fatal:
        assert others_all_fatal


# ----------------------------------------------------------------------
# recovery / graceful failure
# ----------------------------------------------------------------------
def test_simulate_plan_fatal_report_instead_of_hang():
    fs = FaultSchedule(seed=0, flaps=(FlapWindow(host=2, start=0.0, duration=1e9),))
    brief = RetryPolicy(max_attempts=2, backoff_base=1e-4)
    task, _, _ = build("RRR", "S0RR")
    plan = BroadcastStrategy().plan(task)
    res = simulate_plan(plan, faults=fs, retry_policy=brief)  # must return
    assert res.fault_report.fatal
    assert res.failed_ops
    assert res.fault_report.n_abandoned >= 1


def test_without_faults_missing_ops_still_raise():
    """The strict fault-free contract is unchanged: a plan that cannot
    finish is a bug, not a report."""
    task, _, _ = build("RRR", "S0RR")
    plan = BroadcastStrategy().plan(task)
    res = simulate_plan(plan)
    assert res.fault_report is None
    assert not res.failed_ops and not res.corrupted_ops


# ----------------------------------------------------------------------
# randomized sweep (opt in: pytest -m chaos)
# ----------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.parametrize("seed", range(20))
def test_chaos_sweep_never_hangs_or_corrupts(seed):
    fs = FaultSchedule.generate(
        seed=seed,
        n_hosts=4,
        horizon=2.0,
        n_degradations=2,
        n_flaps=1,
        drop_rate=0.05,
    )
    task, src_tensor, arr = build("RRR", "S0RR")
    plan = plan_under(BroadcastStrategy(), task, fs)
    raise_on_plan_errors(plan)
    assert np.array_equal(apply_plan(plan, src_tensor).to_global(), arr)
    res = simulate_plan(plan, faults=fs, retry_policy=PATIENT)
    rep = res.fault_report
    assert rep.status in ("clean", "recovered", "fatal")
    assert (not res.failed_ops and not res.corrupted_ops) == (not rep.fatal)
    # Replay: chaos is a pure function of the seed.
    plan2 = plan_under(BroadcastStrategy(), task, fs)
    res2 = simulate_plan(plan2, faults=fs, retry_policy=PATIENT)
    assert res2.total_time == res.total_time
    assert trace_tuple(res2.network) == trace_tuple(res.network)
