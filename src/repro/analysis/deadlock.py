"""Static deadlock analysis: wait-for graphs with minimal witness traces.

Two analyzers share one cycle finder:

* :func:`check_plan_deadlock` (``D001``) models how the timing
  interpreter (:func:`repro.core.executor.simulate_plan`) actually gates
  work: an op waits for its dependency ops, a unit task *finishes* when
  all its ops finish, and a unit task is *released* only once every
  earlier-ordered task sharing one of its hosts has finished (the
  paper's Eq. 3 gating, read from :func:`repro.core.plan.gating_order`
  exactly as the executor reads it).  An op
  dependency pointing "against" the schedule's host-gating order closes
  a cycle in that wait-for graph — the plan would hang the executor at
  runtime; the analyzer reports the cycle before anything runs.

* :func:`check_stage_orders_deadlock` (``D002``) models the pipeline
  executor (:func:`repro.pipeline.executor.simulate_pipeline`) over
  the executor's own reading of the orders
  (:func:`repro.pipeline.schedules.read_orders`), so plain and
  interleaved placements alike: each device runs its ordered task list
  strictly in sequence, one task at a time, and each cross-stage
  activation/gradient message rides a channel between the stages'
  devices.  A compute task therefore waits on (a) its device
  predecessor and (b) the arrival of its cross-stage inputs; a cycle
  means the schedule deadlocks regardless of timings.

Witnesses are the cycle itself, node by node, trimmed to the strongly
connected core — small enough to paste into a bug report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional, Sequence, TypeVar

from ..core.plan import gating_order
from .diagnostics import AnalysisReport

from ..pipeline.schedules import read_orders

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import CommPlan
    from ..pipeline.schedules import Task
    from ..pipeline.stage import PipelineJob

__all__ = [
    "find_cycle",
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


def check_plan_deadlock(plan: "CommPlan") -> AnalysisReport:
    """Detect wait-for cycles between op deps and schedule host-gating.

    Nodes: ``op<N>`` (the op completing), ``task<T>`` (all of T's ops
    complete), ``release task<T>`` (T's gating predecessors complete).
    Reports ``D001`` with the cycle as a witness.  Cycles formed by op
    dependencies alone are the plan checker's ``P004``; this analyzer
    still reports them (they hang the executor all the same) unless the
    graph has no gating edges at all.
    """
    report = AnalysisReport(subject=f"deadlock[{plan.strategy}]")
    known = {op.op_id for op in plan.ops}
    task_ops = plan.ops_by_task()
    preds: dict[int, set[int]] = {}
    if plan.schedule is not None:
        preds, _ = gating_order(plan.schedule.order, plan.gating_hosts())
    gated = any(preds.values())

    edges: dict[str, list[str]] = {}
    for op in plan.ops:
        waits = [f"op{d}" for d in op.deps if d in known]
        if gated and op.unit_task_id != -1:
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
    """Detect wait-for cycles in a pipeline schedule's task orders.

    ``orders[d]`` is device ``d``'s ordered compute-task list (see
    :func:`repro.pipeline.schedules.schedule_job`), read by
    :func:`repro.pipeline.schedules.read_orders`.  Nodes are tasks keyed
    by stage (``S<stage>:<kind><mb>``); the wait-for graph:

    * serial devices — each task waits on the task before it in its
      device's order (a device runs one task at a time);
    * forward channels — ``F(m)`` at stage ``d`` waits on ``F(m)`` at
      stage ``s`` for every edge ``s -> d`` (activation arrival;
      adjacent stages when ``job`` is None);
    * backward channels — the backward task of micro-batch ``m`` at
      stage ``s`` waits on the backward task at stage ``d`` for every
      edge ``s -> d`` (gradient arrival over the reverse channel).

    Reports ``D002`` with the cycle as a witness.
    """
    # D002 reads placement and positions only; the micro-batch count
    # feeds the coverage rule alone, whose problems are S002's.
    reading = read_orders(orders, 0 if job is None else job.n_microbatches, job)
    report = AnalysisReport(subject="pipeline-schedule")
    position = reading.position
    fwd_inputs = [sorted(set(up)) for up in reading.upstream]
    bwd_inputs = [sorted(set(down)) for down in reading.downstream]

    edges: dict[str, list[str]] = {}
    prev_device, prev = -1, ""
    for s, kind, mb in reading.in_device_order():
        node = f"S{s}:{kind}{mb}"
        device = reading.device_of[s]
        waits = edges[node] = [prev] if device == prev_device else []
        if kind == "F":
            waits.extend(
                f"S{src}:F{mb}" for src in fwd_inputs[s] if (src, "F", mb) in position
            )
        elif kind in ("B", "Bx"):
            # The activation-gradient producer: Bx when split, else B.
            for dst in bwd_inputs[s]:
                for grad in ("B", "Bx"):
                    if (dst, grad, mb) in position:
                        waits.append(f"S{dst}:{grad}{mb}")
                        break
        prev_device, prev = device, node

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
