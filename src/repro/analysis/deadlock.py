"""Static deadlock analysis: wait-for graphs with minimal witness traces.

Two analyzers share one cycle finder:

* :func:`check_plan_deadlock` (``D001``) models how the timing
  interpreter (:func:`repro.core.executor.simulate_plan`) actually gates
  work: an op waits for its dependency ops, a unit task *finishes* when
  all its ops finish, and a unit task is *released* only once every
  earlier-ordered task sharing one of its hosts has finished (the
  executable form of the paper's Eq. 3 non-overlap constraint).  An op
  dependency pointing "against" the schedule's host-gating order closes
  a cycle in that wait-for graph — the plan would hang the executor at
  runtime; the analyzer reports the cycle before anything runs.

* :func:`check_stage_orders_deadlock` (``D002``) models the pipeline
  executor (:func:`repro.pipeline.executor.simulate_pipeline`) in the
  plain one-stage-per-device layout: each stage's device runs its
  ordered task list strictly in sequence, one task at a time, and each
  cross-stage activation/gradient message rides the FIFO channel of
  its directed stage pair.  A compute task therefore waits on (a) its
  stage predecessor and (b) the arrival of its cross-stage inputs; a
  cycle means the schedule deadlocks regardless of timings.

Witnesses are the cycle itself, node by node, trimmed to the strongly
connected core — small enough to paste into a bug report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional, Sequence, TypeVar

from .diagnostics import AnalysisReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import CommPlan
    from ..core.task import UnitCommTask
    from ..pipeline.schedules import Task
    from ..pipeline.stage import PipelineJob

__all__ = [
    "find_cycle",
    "schedule_gating_preds",
    "check_plan_deadlock",
    "check_stage_orders_deadlock",
]

N = TypeVar("N", bound=Hashable)


def find_cycle(edges: dict[N, Sequence[N]]) -> Optional[list[N]]:
    """First cycle of a "waits-on" graph, as ``[n0, n1, ..., n0]``.

    ``edges[x]`` lists the nodes ``x`` waits on.  Deterministic: nodes
    are visited in the mapping's insertion order, successors in list
    order, so the same graph always yields the same witness.
    """
    color: dict[N, int] = {}  # 1 = on stack, 2 = done
    stack: list[N] = []

    def visit(start: N) -> Optional[list[N]]:
        todo: list[tuple[N, int]] = [(start, 0)]
        while todo:
            node, i = todo.pop()
            if i == 0:
                if color.get(node) == 2:
                    continue
                color[node] = 1
                stack.append(node)
            children = edges.get(node, ())
            if i < len(children):
                todo.append((node, i + 1))
                child = children[i]
                if color.get(child) == 1:
                    cut = stack.index(child)
                    return stack[cut:] + [child]
                if color.get(child) != 2:
                    todo.append((child, 0))
            else:
                color[node] = 2
                stack.pop()
        return None

    for node in edges:
        if color.get(node) is None:
            cycle = visit(node)
            if cycle is not None:
                return cycle
    return None


def schedule_gating_preds(
    plan: "CommPlan", unit_tasks: "list[UnitCommTask]"
) -> dict[int, set[int]]:
    """Host-gating predecessors per unit task, as the executor builds them.

    Task ``t`` may only start once every earlier-ordered task sharing
    one of its hosts (assigned sender host or any receiver host) has
    finished.  Mirrors :func:`repro.core.executor.simulate_plan`.
    """
    schedule = plan.schedule
    task_ops = plan.ops_by_task()
    preds: dict[int, set[int]] = {tid: set() for tid in task_ops}
    if schedule is None:
        return preds
    ut_by_id = {ut.task_id: ut for ut in unit_tasks}
    last_on_host: dict[int, int] = {}
    for tid in schedule.order:
        if tid not in task_ops or tid not in ut_by_id:
            continue
        ut = ut_by_id[tid]
        hosts = set(plan.task.receiver_hosts(ut))
        if tid in schedule.assignment:
            hosts.add(schedule.assignment[tid])
        for h in sorted(hosts):
            prev = last_on_host.get(h)
            if prev is not None and prev != tid:
                preds[tid].add(prev)
            last_on_host[h] = tid
    return preds


def check_plan_deadlock(
    plan: "CommPlan", unit_tasks: "Optional[list[UnitCommTask]]" = None
) -> AnalysisReport:
    """Detect wait-for cycles between op deps and schedule host-gating.

    Nodes: ``op<N>`` (the op completing), ``task<T>`` (all of T's ops
    complete), ``release task<T>`` (T's gating predecessors complete).
    Reports ``D001`` with the cycle as a witness.  Cycles formed by op
    dependencies alone are the plan checker's ``P004``; this analyzer
    still reports them (they hang the executor all the same) unless the
    graph has no gating edges at all.
    """
    report = AnalysisReport(subject=f"deadlock[{plan.strategy}]")
    if unit_tasks is None:
        unit_tasks = plan.task.unit_tasks(plan.granularity)
    known = {op.op_id for op in plan.ops}
    task_ops = plan.ops_by_task()
    preds = schedule_gating_preds(plan, unit_tasks)
    gated = plan.schedule is not None and any(preds.values())

    edges: dict[str, list[str]] = {}
    for op in plan.ops:
        waits = [f"op{d}" for d in op.deps if d in known]
        if gated and op.unit_task_id != -1 and op.unit_task_id in preds:
            waits.append(f"release task{op.unit_task_id}")
        edges[f"op{op.op_id}"] = waits
    if gated:
        for tid, ops in task_ops.items():
            if tid == -1:
                continue
            edges[f"task{tid}"] = [f"op{op.op_id}" for op in ops]
            edges[f"release task{tid}"] = [
                f"task{p}" for p in sorted(preds.get(tid, ()))
            ]

    cycle = find_cycle(edges)
    if cycle is None:
        return report
    only_deps = all(node.startswith("op") for node in cycle)
    if only_deps and not gated:
        # Pure dep cycle in an ungated plan: P004 already owns it.
        return report
    op_ids = tuple(
        dict.fromkeys(int(n[2:]) for n in cycle if n.startswith("op"))
    )
    task_ids = tuple(
        dict.fromkeys(
            int(n.rsplit("task", 1)[1]) for n in cycle if "task" in n
        )
    )
    report.add(
        "D001",
        "wait-for cycle: the executor would hang before completing "
        f"{len(op_ids)} op(s)",
        op_ids=op_ids,
        task_ids=task_ids,
        witness=tuple(cycle),
    )
    return report


def check_stage_orders_deadlock(
    orders: "list[list[Task]]",
    job: "Optional[PipelineJob]" = None,
) -> AnalysisReport:
    """Detect wait-for cycles in a pipeline schedule's stage orders.

    ``orders[s]`` is stage ``s``'s ordered compute-task list (see
    :func:`repro.pipeline.schedules.schedule_job`).  The wait-for graph:

    * serial stages — task ``k`` of a stage waits on task ``k-1``
      (the stage's device runs one task at a time);
    * forward channels — ``F(m)`` at stage ``d`` waits on ``F(m)`` at
      stage ``s`` for every comm edge ``s -> d`` (activation arrival;
      adjacent stages when ``job`` is None);
    * backward channels — the backward task of micro-batch ``m`` at
      stage ``s`` waits on the backward task at stage ``d`` for every
      edge ``s -> d`` (gradient arrival over the reverse channel).

    Reports ``D002`` with the cycle as a witness.
    """
    report = AnalysisReport(subject="pipeline-schedule")
    n_stages = len(orders)

    if job is not None:
        fwd_inputs = {
            s: sorted({e.src_stage for e in job.in_edges(s)}) for s in range(n_stages)
        }
        bwd_inputs = {
            s: sorted({e.dst_stage for e in job.out_edges(s)}) for s in range(n_stages)
        }
    else:
        fwd_inputs = {s: ([s - 1] if s > 0 else []) for s in range(n_stages)}
        bwd_inputs = {s: ([s + 1] if s < n_stages - 1 else []) for s in range(n_stages)}

    def fwd_node(stage: int, mb: int) -> Optional[str]:
        for t in orders[stage]:
            if t.kind == "F" and t.microbatch == mb:
                return f"S{stage}:F{mb}"
        return None

    def bwd_node(stage: int, mb: int) -> Optional[str]:
        # The activation-gradient producer: Bx when split, else B.
        for t in orders[stage]:
            if t.kind in ("B", "Bx") and t.microbatch == mb:
                return f"S{stage}:{t.kind}{mb}"
        return None

    edges: dict[str, list[str]] = {}
    for s, order in enumerate(orders):
        prev: Optional[str] = None
        for t in order:
            node = f"S{s}:{t.kind}{t.microbatch}"
            waits = edges.setdefault(node, [])
            if prev is not None:
                waits.append(prev)
            if t.kind == "F":
                for src in fwd_inputs[s]:
                    upstream = fwd_node(src, t.microbatch)
                    if upstream is not None:
                        waits.append(upstream)
            elif t.kind in ("B", "Bx"):
                for dst in bwd_inputs[s]:
                    downstream = bwd_node(dst, t.microbatch)
                    if downstream is not None:
                        waits.append(downstream)
            prev = node

    cycle = find_cycle(edges)
    if cycle is not None:
        stages = tuple(
            dict.fromkeys(int(n.split(":", 1)[0][1:]) for n in cycle)
        )
        report.add(
            "D002",
            "pipeline schedule deadlocks: stages "
            f"{', '.join(str(s) for s in stages)} wait on each other in a cycle",
            task_ids=stages,
            witness=tuple(cycle),
        )
    return report
