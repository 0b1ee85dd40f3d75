"""S2 — cluster-size scaling (extension experiment).

The paper evaluates on 2-4 nodes.  The simulator lets us push the same
microbenchmarks to larger clusters and check the asymptotics §3.1
promises: broadcast latency stays ~flat in mesh size while send/recv
grows linearly, and the randomized-greedy scheduler keeps producing
near-optimal orders as the unit-task count grows past what DFS can
search.
"""

from __future__ import annotations

import numpy as np

from ..core.api import reshard
from ..core.mesh import DeviceMesh
from ..core.task import ReshardingTask
from ..scheduling import (
    SchedulingProblem,
    evaluate,
    load_balance_schedule,
    naive_schedule,
    randomized_greedy_schedule,
)
from ..sim.cluster import Cluster, ClusterSpec
from .common import ExperimentTable

__all__ = ["run", "run_scheduler_scaling"]

#: 512 MiB fp32 tensor, dp-sharded on both sides
SHAPE = (1024, 512, 256)


def _meshes(n_hosts_per_side: int) -> tuple[DeviceMesh, DeviceMesh]:
    cluster = Cluster(ClusterSpec(n_hosts=2 * n_hosts_per_side, devices_per_host=4))
    src = DeviceMesh.from_hosts(cluster, range(n_hosts_per_side))
    dst = DeviceMesh.from_hosts(
        cluster, range(n_hosts_per_side, 2 * n_hosts_per_side)
    )
    return src, dst


def run() -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="S2 (extension)",
        title="Mesh-size scaling: S0RR -> S0RR, 512 MiB tensor",
        columns=[
            "hosts/side",
            "devices/side",
            "send_recv (s)",
            "allgather (s)",
            "broadcast (s)",
        ],
        notes=(
            "The tensor is fixed, so latency falls inversely with hosts "
            "per side (aggregate NIC bandwidth grows); the gap is the "
            "point: send/recv pays the 4x destination replication at "
            "every size, broadcast stays at one traversal per slice."
        ),
    )
    for h in (1, 2, 4, 8):
        src, dst = _meshes(h)
        row = {"hosts/side": h, "devices/side": 4 * h}
        for strat in ("send_recv", "allgather", "broadcast"):
            r = reshard(SHAPE, src, "S0RR", dst, "S0RR", strategy=strat)
            row[f"{strat} (s)"] = r.latency
        table.add(**row)
    return table


def run_scheduler_scaling() -> ExperimentTable:
    """Scheduling quality as the unit-task count grows.

    Uses the case-4 pattern (orthogonal S^{01} tilings) whose unit-task
    count is (devices/side)^2 — DFS is hopeless beyond ~20 tasks, so
    this is randomized-greedy territory.
    """
    table = ExperimentTable(
        experiment_id="S2b (extension)",
        title="Scheduler scaling on case-4-style problems",
        columns=[
            "unit tasks",
            "naive makespan (s)",
            "ours makespan (s)",
            "speedup",
        ],
    )
    for h in (2, 3, 4, 6):
        cluster = Cluster(ClusterSpec(n_hosts=2 * h, devices_per_host=4))
        src = DeviceMesh.from_hosts(cluster, range(h))
        dst = DeviceMesh.from_hosts(cluster, range(h, 2 * h))
        rt = ReshardingTask(
            (1024, 4 * h * 64, 64), src, "RS01R", dst, "S01RR", dtype=np.float32
        )
        problem = SchedulingProblem.from_resharding(rt)
        naive = naive_schedule(problem)
        ours = randomized_greedy_schedule(problem)
        # cross-check claimed makespans
        assert evaluate(problem, ours.assignment, ours.order)[0] == ours.makespan
        lb = load_balance_schedule(problem)
        best = min(ours.makespan, lb.makespan)
        table.add(
            **{
                "unit tasks": problem.n_tasks,
                "naive makespan (s)": naive.makespan,
                "ours makespan (s)": best,
                "speedup": naive.makespan / best,
            }
        )
    return table
