"""Chaos — broadcast resharding latency vs. injected flow-drop rate.

How gracefully does the broadcast runtime degrade as the flow-drop
probability rises?  Each row plans and simulates the same 1 GB
resharding (2 sender hosts -> 2 receiver hosts) under a seeded
:class:`~repro.sim.faults.FaultSchedule` with the retry policy below.
At drop rate 0 the row is the fault-free run exactly: every fault hook
is behind a ``faults is None``-style guard (pinned in
``tests/test_faults.py``).
"""

from __future__ import annotations

from ..compiler import compile_resharding
from ..core.executor import simulate_plan
from ..core.mesh import DeviceMesh
from ..core.task import ReshardingTask
from ..sim import GB, Cluster, ClusterSpec
from ..sim.faults import FaultSchedule, RetryPolicy
from ..strategies import BroadcastStrategy
from .common import ExperimentTable

__all__ = ["run", "make_task", "DROP_RATES", "POLICY"]

DROP_RATES = [0.0, 0.01, 0.05, 0.1, 0.2]
POLICY = RetryPolicy(max_attempts=12, backoff_base=2e-3)


def make_task() -> ReshardingTask:
    cluster = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(cluster, [0, 1])
    dst = DeviceMesh.from_hosts(cluster, [2, 3])
    # ~1 GB fp32 tensor, same scale as the paper's microbenchmarks
    shape = (int(GB // (4 * 1024 * 1024)), 1024, 1024)
    return ReshardingTask(shape, src, "S0RR", dst, "RS1R", dtype="float32")


def run() -> ExperimentTable:
    task = make_task()
    baseline = simulate_plan(BroadcastStrategy().plan(task)).total_time
    table = ExperimentTable(
        experiment_id="chaos",
        title="Broadcast resharding under flow drops (1 GB, 2x2 hosts)",
        columns=["drop rate", "latency (s)", "slowdown", "retries", "status"],
        notes=f"fault-free baseline {baseline:.4g} s; retry policy {POLICY}",
    )
    for rate in DROP_RATES:
        faults = FaultSchedule(seed=0, drop_rate=rate)
        plan = compile_resharding(task, cache=None, faults=faults).plan
        res = simulate_plan(plan, faults=faults, retry_policy=POLICY)
        rep = res.fault_report
        table.add(**{
            "drop rate": rate,
            "latency (s)": res.total_time,
            "slowdown": res.total_time / baseline,
            "retries": rep.n_retries,
            "status": rep.status,
        })
    return table
