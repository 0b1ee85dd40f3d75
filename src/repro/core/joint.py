"""Joint planning of several cross-mesh resharding tasks.

A pipeline-stage boundary often carries *several* tensors per
micro-batch (the U-Transformer sends the sequential activation plus
every long skip).  Planning each tensor separately leaves bandwidth on
the table: their unit communication tasks contend for the same host
NICs, so the §3.2 load-balance/ordering problem should be solved over
the union.  This module builds one combined scheduling problem across
all tensors, runs the ensemble scheduler once, and simulates all plans
under a single global gating — the "collectively optimize all cross-mesh
resharding tasks" framing of the paper's introduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..scheduling import SCHEDULERS, Schedule, SchedTask, SchedulingProblem
from ..sim.network import Network
from ..strategies.base import LoadTracker
from ..strategies.broadcast import adaptive_chunks
from .executor import CollectiveHandle, _launch_op
from .plan import BroadcastOp, CommOp, CommPlan, gating_order
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
            gid = len(key)
            key.append((ti, st.task_id))
            sched_tasks.append(
                SchedTask(
                    task_id=gid,
                    sender_host_options=st.sender_host_options,
                    receiver_hosts=st.receiver_hosts,
                    duration_by_host=st.duration_by_host,
                    n_devices=st.n_devices,
                )
            )
    return SchedulingProblem(sched_tasks), key


def plan_joint_broadcast(
    tasks: Sequence[ReshardingTask],
    scheduler: str = "ensemble",
    granularity: str = "intersection",
) -> tuple[list[CommPlan], Schedule, list[tuple[int, int]]]:
    """Broadcast plans for all tensors under one global schedule."""
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
    load = LoadTracker(cluster)
    plans = [CommPlan(task=rt, strategy="broadcast", granularity=granularity)
             for rt in tasks]
    for gid, (ti, local) in enumerate(key):
        rt, plan = tasks[ti], plans[ti]
        ut = rt.unit_tasks(granularity)[local]
        if not ut.receivers:
            continue
        host = schedule.assignment[gid]
        sender = load.pick_on_host(ut.senders, host, ut.nbytes)
        plan.add(
            BroadcastOp(
                op_id=plan.next_op_id,
                unit_task_id=local,
                region=ut.region,
                nbytes=ut.nbytes,
                sender=sender,
                receivers=ut.receivers,
                n_chunks=adaptive_chunks(ut.nbytes),
            )
        )
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

    Gating follows the executor's Eq. 3 semantics, with per-host
    program order derived from the *global* schedule order.
    """
    if not plans:
        raise ValueError("need at least one plan")
    net = network if network is not None else Network(plans[0].task.cluster)
    base_cross = net.bytes_cross_host

    # global id -> op (joint broadcast plans have one op per unit task)
    ops: dict[int, CommOp] = {}
    hosts_of: dict[int, frozenset[int]] = {}
    local_to_gid = {pair: gid for gid, pair in enumerate(key)}
    for ti, plan in enumerate(plans):
        for op in plan.ops:
            gid = local_to_gid[(ti, op.unit_task_id)]
            ops[gid] = op
            ut = plan.task.unit_tasks(plan.granularity)[op.unit_task_id]
            hosts_of[gid] = plan.task.occupied_hosts(ut, schedule.assignment[gid])
    preds, succs = gating_order(schedule.order, hosts_of)

    finish: dict[int, float] = {}
    tensor_pending = [len(p.ops) for p in plans]
    tensor_finish = [0.0] * len(plans)
    gid_tensor = {local_to_gid[(ti, op.unit_task_id)]: ti
                  for ti, plan in enumerate(plans) for op in plan.ops}

    def on_done(gid: int, handle: CollectiveHandle) -> None:
        finish[gid] = handle.finish_time
        ti = gid_tensor[gid]
        tensor_pending[ti] -= 1
        if tensor_pending[ti] == 0:
            tensor_finish[ti] = handle.finish_time
        for s in succs[gid]:
            maybe_launch(s)

    launched: set[int] = set()

    def maybe_launch(gid: int) -> None:
        if gid in launched or any(p not in finish for p in preds[gid]):
            return
        launched.add(gid)
        handle = _launch_op(net, ops[gid])
        handle.add_done_callback(lambda h, g=gid: on_done(g, h))

    for gid in ops:
        maybe_launch(gid)
    net.run()
    missing = [g for g in ops if g not in finish]
    if missing:
        raise RuntimeError(f"joint simulation deadlocked on tasks {missing[:5]}")
    return JointTimingResult(
        total_time=max(finish.values(), default=0.0),
        per_tensor_finish=tensor_finish,
        bytes_cross_host=net.bytes_cross_host - base_cross,
        network=net,
    )


def reshard_boundary(
    tasks: Sequence[ReshardingTask],
    scheduler: str = "ensemble",
) -> JointTimingResult:
    """Plan and simulate a multi-tensor boundary in one shot."""
    plans, schedule, key = plan_joint_broadcast(tasks, scheduler=scheduler)
    return simulate_joint(plans, schedule, key)
