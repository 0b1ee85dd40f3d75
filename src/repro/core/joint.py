"""Joint planning of several cross-mesh resharding tasks.

A pipeline-stage boundary often carries *several* tensors per
micro-batch (the U-Transformer sends the sequential activation plus
every long skip).  Planning each tensor separately leaves bandwidth on
the table: their unit communication tasks contend for the same host
NICs, so the §3.2 load-balance/ordering problem should be solved over
the union.  This module builds one combined scheduling problem across
all tensors, runs the ensemble scheduler once, emits each tensor's ops
through :class:`~repro.strategies.broadcast.BroadcastStrategy`, and
simulates all plans on the executor's :class:`~repro.core.executor
.PlanRunner` under a single global gating — the "collectively optimize
all cross-mesh resharding tasks" framing of the paper's introduction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from ..scheduling import SCHEDULERS, Schedule, SchedTask, SchedulingProblem
from ..sim.network import Network
from ..strategies.base import LoadTracker
from ..strategies.broadcast import BroadcastStrategy
from .executor import PlanRunner
from .plan import CommOp, CommPlan, gating_order
from .task import ReshardingTask

__all__ = ["JointTimingResult", "plan_joint_broadcast", "simulate_joint", "reshard_boundary"]


def _combined_problem(
    tasks: Sequence[ReshardingTask], granularity: str = "intersection"
) -> tuple[SchedulingProblem, list[tuple[int, int]]]:
    """Union of all tensors' unit tasks under globally unique ids.

    Returns the problem plus ``key[global_id] = (tensor_idx, local_id)``.
    """
    sched_tasks: list[SchedTask] = []
    key: list[tuple[int, int]] = []
    for ti, rt in enumerate(tasks):
        sub = SchedulingProblem.from_resharding(rt, granularity=granularity)
        for st in sub.tasks:
            sched_tasks.append(dataclasses.replace(st, task_id=len(key)))
            key.append((ti, st.task_id))
    return SchedulingProblem(sched_tasks), key


def plan_joint_broadcast(
    tasks: Sequence[ReshardingTask],
    scheduler: str = "ensemble",
    granularity: str = "intersection",
) -> tuple[list[CommPlan], Schedule, list[tuple[int, int]]]:
    """Broadcast plans for all tensors under one global schedule.

    ``BroadcastStrategy.emit`` emits each tensor from its view of the
    global schedule; one :class:`LoadTracker` spans all tensors.
    """
    if not tasks:
        raise ValueError("need at least one resharding task")
    cluster = tasks[0].cluster
    for rt in tasks:
        if rt.cluster is not cluster:
            raise ValueError("all tasks must share one cluster")
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    problem, key = _combined_problem(tasks, granularity)
    schedule = SCHEDULERS[scheduler](problem)
    strategy = BroadcastStrategy(granularity=granularity)
    load = LoadTracker(cluster)
    plans: list[CommPlan] = []
    for ti, rt in enumerate(tasks):
        # This tensor's view of the global schedule, in local unit-task ids.
        mine = [gid for gid in schedule.order if key[gid][0] == ti]
        view = Schedule(
            assignment={key[g][1]: schedule.assignment[g] for g in mine},
            order=tuple(key[g][1] for g in mine),
        )
        plan = CommPlan(task=rt, strategy="broadcast", granularity=granularity)
        strategy.emit(rt, plan, view, load)
        plans.append(plan)
    return plans, schedule, key


@dataclass
class JointTimingResult:
    total_time: float
    per_tensor_finish: list[float]
    bytes_cross_host: float
    network: Network


def simulate_joint(
    plans: Sequence[CommPlan],
    schedule: Schedule,
    key: Sequence[tuple[int, int]],
    network: Optional[Network] = None,
) -> JointTimingResult:
    """Simulate several plans under one global schedule gating.

    The plans run as one combined :class:`CommPlan` on the executor's
    :class:`PlanRunner`: its ops carry global unit-task ids (``key``
    maps each to ``(tensor, local id)``), listed in global-id order, and
    are gated by Eq. 3 over the *global* schedule order.
    """
    if not plans:
        raise ValueError("need at least one plan")
    if schedule is None:
        raise ValueError("simulate_joint needs the global schedule, got None")
    if sorted({ti for ti, _ in key}) != list(range(len(plans))):
        raise ValueError(f"key does not name exactly the {len(plans)} plan(s) given")
    gid_of = {pair: gid for gid, pair in enumerate(key)}
    placed: list[tuple[int, int, CommOp]] = []  # (gid, tensor, op)
    for ti, plan in enumerate(plans):
        for op in plan.ops:
            gid = gid_of.get((ti, op.unit_task_id))
            if gid is None or gid not in schedule.assignment:
                where = "key" if gid is None else "the schedule's assignment"
                raise ValueError(
                    f"plan {ti} op {op.op_id}: unit task {op.unit_task_id} "
                    f"is missing from {where}"
                )
            placed.append((gid, ti, op))
    placed.sort(key=lambda entry: entry[0])

    combined = CommPlan(
        task=plans[0].task, strategy="joint", granularity=plans[0].granularity
    )
    new_id = {(ti, op.op_id): i for i, (_, ti, op) in enumerate(placed)}
    hosts_of: dict[int, frozenset[int]] = {}
    gids_of: list[list[int]] = [[] for _ in plans]
    for i, (gid, ti, op) in enumerate(placed):
        deps = tuple(new_id[(ti, d)] for d in op.deps)
        combined.add(dataclasses.replace(op, op_id=i, unit_task_id=gid, deps=deps))
        rt = plans[ti].task
        ut = rt.unit_tasks(plans[ti].granularity)[op.unit_task_id]
        hosts_of[gid] = rt.occupied_hosts(ut, schedule.assignment[gid])
        gids_of[ti].append(gid)

    runner = PlanRunner(combined, network=network)
    preds, succs = gating_order(schedule.order, hosts_of)
    runner.task_preds.update(preds)
    runner.task_succs.update(succs)
    timing = runner.run()
    return JointTimingResult(
        total_time=timing.total_time,
        per_tensor_finish=[
            max((timing.task_finish.get(g, 0.0) for g in gids), default=0.0)
            for gids in gids_of
        ],
        bytes_cross_host=timing.bytes_cross_host,
        network=timing.network,
    )


def reshard_boundary(
    tasks: Sequence[ReshardingTask],
    scheduler: str = "ensemble",
) -> JointTimingResult:
    """Plan and simulate a multi-tensor boundary in one shot."""
    plans, schedule, key = plan_joint_broadcast(tasks, scheduler=scheduler)
    return simulate_joint(plans, schedule, key)
