"""Static peak-memory analysis of communication plans (M-codes).

:func:`static_host_bounds` abstractly interprets a
:class:`~repro.core.plan.CommPlan` and computes, per host, a **sound
upper bound** on the transient buffer bytes live at any instant while
the plan executes: receive-side landing buffers, scatter staging parts,
multicast/broadcast fanout copies — including the re-rooted duplicates
a :class:`~repro.compiler.passes.FaultRewritePass` rewrite introduces,
since attribution is receiver-side and survives sender changes.

The per-op charges come from :func:`repro.core.buffers.op_host_buffers`
— the *same* attribution the runtime accounting in
:class:`~repro.core.executor.PlanRunner` charges at op launch and
releases at op completion.  Soundness therefore reduces to the
serialization argument below, and ``tests``/``python -m repro fuzz``
pin ``static_bound >= simulated_peak`` on every run.

Serialization argument
======================

*Gated plans* (the plan carries a schedule and the strategy gates on
it): the executor chains unit tasks per host — task *t* may start only
after the previous task in schedule order that touches one of *t*'s
hosts has finished, where "touches" means
:meth:`CommPlan.gating_hosts() <repro.core.plan.CommPlan.gating_hosts>`
— ``receiver_hosts(t) ∪ {assignment[t]}``, the host sets
:func:`repro.core.plan.gating_order` gates the executor and the D001
deadlock analysis on.  A finished task has completed every op,
so its buffers are released before any successor on the same host
launches.  Hence at most one scheduled task's buffers are live per host
at a time, and::

    bound[h] = concurrent[h] + max over scheduled tasks t touching h
               of sum(op buffers on h for ops of t)

``concurrent[h]`` collects contributions the gating order says nothing
about: schedule-free (task id ``-1``) ops, and ops of tasks the
schedule does not gate.  Those are combined by **dependency-chain
decomposition** — ops linked by a dep edge are serialized (the executor
releases an op's buffers before launching its dependents), so each
chain contributes its max and concurrent chains sum.

*Ungated plans* (the baselines): every op may overlap, so the whole op
list is chain-decomposed the same way.

M-codes
=======

* **M001** — the bound exceeds the effective ``memory_budget`` (from
  :class:`~repro.sim.cluster.ClusterSpec` or an explicit override) on
  at least one host;
* **M002** — a buffer cannot be attributed/bounded: an op's byte count
  is not finite, or a gated op delivers to a host outside its unit
  task's gating host set (the serialization argument does not cover it;
  the analyzer then counts it as always-concurrent to stay sound);
* **M003** — raised by :class:`~repro.compiler.passes.SelectPass`, not
  here: every auto-strategy candidate is budget-infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..core.buffers import op_host_buffers
from ..core.plan import CommOp, CommPlan
from ..sim.cluster import Cluster
from .diagnostics import AnalysisReport

__all__ = [
    "MemoryAnalysis",
    "static_host_bounds",
    "check_plan_memory",
    "soundness_payload",
]

#: absolute slack (bytes) for float-accumulation residue when comparing
#: a simulated high-water mark against the static bound
SOUNDNESS_SLACK_BYTES = 1e-6


@dataclass(frozen=True)
class MemoryAnalysis:
    """The static memory proof for one plan."""

    #: sound per-host upper bound on live transient buffer bytes
    per_host: dict[int, float] = field(default_factory=dict)
    #: the always-concurrent share of ``per_host`` (ungated/uncovered ops)
    concurrent: dict[int, float] = field(default_factory=dict)
    #: True when the schedule's host-serialization order was usable
    gated: bool = False
    #: ops with a non-finite byte count (bound is unattributable: M002)
    nonfinite_ops: tuple[int, ...] = ()
    #: gated ops delivering outside their task's gating host set (M002)
    uncovered_ops: tuple[int, ...] = ()

    @property
    def peak(self) -> float:
        """The worst per-host bound (0.0 for an op-free plan)."""
        return max(self.per_host.values(), default=0.0)

    def dominates(self, observed: dict[int, float]) -> bool:
        """True when the bound covers an observed per-host peak map."""
        return all(
            peak <= self.per_host.get(host, 0.0) + SOUNDNESS_SLACK_BYTES
            for host, peak in observed.items()
        )

    def format_table(self) -> str:
        """Human-readable per-host bound table (CLI ``--explain``)."""
        lines = [f"{'host':>6}  {'static bound':>14}  {'concurrent':>12}"]
        for host in sorted(self.per_host):
            lines.append(
                f"{host:>6}  {self.per_host[host]:>14.0f}  "
                f"{self.concurrent.get(host, 0.0):>12.0f}"
            )
        return "\n".join(lines)


def _finite_buffers(
    op: CommOp,
    cluster: Cluster,
    nonfinite: list[int],
) -> dict[int, float]:
    """Per-host charges for one op, mapping non-finite sizes to +inf."""
    buffers = op_host_buffers(cluster, op)
    if not math.isfinite(op.nbytes):
        nonfinite.append(op.op_id)
        return {h: math.inf for h in buffers} if buffers else {}
    # Negative byte counts are a P008 defect; clamp so the bound cannot
    # be *reduced* by a malformed op.
    return {h: max(v, 0.0) for h, v in buffers.items()}


def _chain_bound(
    ops: list[CommOp], charges: dict[int, dict[int, float]]
) -> dict[int, float]:
    """Sum-of-chain-maxima bound for ops with no gating between them.

    Ops are greedily threaded into dependency chains (an op joins the
    chain of its first dep whose chain it is the first to extend);
    consecutive chain members are serialized by the executor's
    release-before-launch order, so a chain contributes its per-host
    max and distinct chains sum.
    """
    chain_of: dict[int, int] = {}
    extended: set[int] = set()
    chain_max: dict[int, dict[int, float]] = {}
    next_chain = 0
    in_scope = {op.op_id for op in ops}
    for op in ops:
        cid = None
        for dep in op.deps:
            if dep in in_scope and dep in chain_of and dep not in extended:
                cid = chain_of[dep]
                extended.add(dep)
                break
        if cid is None:
            cid = next_chain
            next_chain += 1
            chain_max[cid] = {}
        chain_of[op.op_id] = cid
        peaks = chain_max[cid]
        for host, nbytes in charges.get(op.op_id, {}).items():
            if nbytes > peaks.get(host, 0.0):
                peaks[host] = nbytes
    out: dict[int, float] = {}
    for peaks in chain_max.values():
        for host, nbytes in peaks.items():
            out[host] = out.get(host, 0.0) + nbytes
    return out


def static_host_bounds(plan: CommPlan) -> MemoryAnalysis:
    """Compute the sound per-host peak-buffer bound for ``plan``."""
    cluster = plan.task.cluster
    nonfinite: list[int] = []
    uncovered: list[int] = []
    charges = {
        op.op_id: _finite_buffers(op, cluster, nonfinite) for op in plan.ops
    }

    schedule = plan.schedule
    task_ops = plan.ops_by_task()
    per_host: dict[int, float] = {}
    concurrent: dict[int, float] = {}
    gated = schedule is not None

    if schedule is None:
        concurrent = _chain_bound(list(plan.ops), charges)
        per_host = dict(concurrent)
        return MemoryAnalysis(
            per_host=per_host,
            concurrent=concurrent,
            gated=False,
            nonfinite_ops=tuple(sorted(set(nonfinite))),
            uncovered_ops=(),
        )

    # The executor's gating host set per scheduled task, and the sum of
    # each task's covered op charges per host (ops within one task may
    # all be concurrent — their sum is the task's footprint).
    loose_ops: list[CommOp] = list(task_ops.get(-1, ()))
    task_footprint: dict[int, dict[int, float]] = {}
    gating_hosts = plan.gating_hosts()
    for tid in sorted(gating_hosts):
        hosts = gating_hosts[tid]
        footprint: dict[int, float] = {}
        for op in task_ops[tid]:
            outside = [h for h in charges[op.op_id] if h not in hosts]
            if outside:
                # The serialization order says nothing about these
                # deliveries; count the whole op as always-concurrent
                # (sound) and report it (M002).
                uncovered.append(op.op_id)
                loose_ops.append(op)
                continue
            for host, nbytes in charges[op.op_id].items():
                footprint[host] = footprint.get(host, 0.0) + nbytes
        task_footprint[tid] = footprint

    # Tasks that emit ops but the schedule does not gate (P007
    # territory): always-concurrent.
    for tid, ops in task_ops.items():
        if tid != -1 and tid not in gating_hosts:
            loose_ops.extend(ops)

    concurrent = _chain_bound(loose_ops, charges)
    per_host = dict(concurrent)
    serialized: dict[int, float] = {}
    for tid, footprint in task_footprint.items():
        for host, nbytes in footprint.items():
            if nbytes > serialized.get(host, 0.0):
                serialized[host] = nbytes
    for host, nbytes in serialized.items():
        per_host[host] = per_host.get(host, 0.0) + nbytes

    return MemoryAnalysis(
        per_host=per_host,
        concurrent=concurrent,
        gated=gated,
        nonfinite_ops=tuple(sorted(set(nonfinite))),
        uncovered_ops=tuple(sorted(set(uncovered))),
    )


def check_plan_memory(
    plan: CommPlan,
    report: AnalysisReport,
    memory_budget: Optional[float] = None,
) -> MemoryAnalysis:
    """Run the memory analysis and file M001/M002 findings on ``report``.

    ``memory_budget`` overrides the cluster spec's own budget; with
    neither set only M002 (unattributable buffers) can fire.
    """
    analysis = static_host_bounds(plan)
    for op_id in analysis.nonfinite_ops:
        report.add(
            "M002",
            f"op {op_id}: byte count is not finite; its transient buffer "
            "cannot be bounded",
            op_ids=(op_id,),
        )
    for op_id in analysis.uncovered_ops:
        report.add(
            "M002",
            f"op {op_id}: delivers to host(s) outside its unit task's "
            "schedule-gating host set; the buffer is unattributable to "
            "the serialization order and was counted as always-concurrent",
            op_ids=(op_id,),
        )
    budget = (
        memory_budget
        if memory_budget is not None
        else plan.task.cluster.spec.memory_budget
    )
    if budget is not None:
        over = sorted(
            h for h, bound in analysis.per_host.items() if bound > budget
        )
        if over:
            worst = analysis.peak
            report.add(
                "M001",
                f"static peak-buffer bound {worst:.0f} B exceeds "
                f"memory_budget {budget:.0f} B on host(s) {over} "
                f"(gated={analysis.gated})",
            )
    return analysis


#: the fig5/6/7-shaped golden workloads of :func:`soundness_payload`;
#: ``kill`` is the host failed at plan time in the fault-rewrite leg
#: (a sender where re-rooting has real choices, a receiver for fig5)
GOLDEN_WORKLOADS: dict[str, dict[str, Any]] = {
    "fig5-bcast": dict(
        shape=(16384,), src_hosts=(0,), src_spec="R",
        dst_hosts=(1, 2, 3, 4), dst_spec="R", kill=4,
    ),
    "fig6-crossmesh": dict(
        shape=(128, 128), src_hosts=(0, 1), src_spec="S0R",
        dst_hosts=(2, 3), dst_spec="RS1", kill=1,
    ),
    "fig7-replicated": dict(
        shape=(128, 128), src_hosts=(0, 1, 2, 3), src_spec="RS1",
        dst_hosts=(4, 5), dst_spec="S0R", kill=0,
    ),
}

#: fixed reference budget for the payload's budget column (bytes/host)
REFERENCE_BUDGET = 262144.0


def soundness_payload() -> dict[str, Any]:
    """Deterministic ``BENCH_memory.json`` payload: the soundness sweep.

    Compiles and simulates every :data:`GOLDEN_WORKLOADS` entry on every
    topology-zoo fabric, steady and with a host failed at plan time.
    Raises unless the static bound dominates the simulated peak on every
    host of every run, and unless the faulted leg produces at least one
    fallback re-root (else its half of the gate is vacuous).
    """
    # the compiler and the experiments sit above this package
    from ..compiler import CompileContext, compile_resharding
    from ..core.executor import simulate_plan
    from ..core.mesh import DeviceMesh
    from ..core.task import ReshardingTask
    from ..experiments.topology_zoo import zoo_specs
    from ..sim.faults import FaultSchedule, HostFailure, RetryPolicy
    from ..strategies import make_strategy

    rows: dict[str, Any] = {}
    rewrites = 0
    for fabric, spec in sorted(zoo_specs().items()):
        cluster = Cluster(spec)
        rows[fabric] = {}
        for name, wl in GOLDEN_WORKLOADS.items():
            rows[fabric][name] = {}
            task = ReshardingTask(
                wl["shape"],
                DeviceMesh.from_hosts(cluster, wl["src_hosts"]),
                wl["src_spec"],
                DeviceMesh.from_hosts(cluster, wl["dst_hosts"]),
                wl["dst_spec"],
                dtype=np.float32,
            )
            for mode in ("steady", "faulted"):
                faults: Optional[FaultSchedule] = None
                retry: Optional[RetryPolicy] = None
                strategy: Any = "broadcast"
                if mode == "faulted":
                    faults = FaultSchedule(
                        seed=1, host_failures=(HostFailure(host=wl["kill"], time=0.0),)
                    )
                    retry = RetryPolicy()
                    strategy = make_strategy("broadcast")
                    # Blind the scheduler (as a buggy deployment might) so
                    # the re-root pass carries the load and the bound is
                    # exercised on genuinely rewritten plans.
                    strategy.schedule_uses_faults = False
                plan = compile_resharding(
                    task,
                    CompileContext(
                        strategy=strategy, faults=faults, retry_policy=retry, cache=None
                    ),
                ).plan
                peaks = simulate_plan(plan, faults=faults, retry_policy=retry).host_peak_buffers
                mem = static_host_bounds(plan)
                where = f"{fabric}/{name}/{mode}"
                if not mem.dominates(peaks):
                    raise RuntimeError(
                        f"{where}: simulated peak {peaks} exceeds static bound {mem.per_host}"
                    )
                if mem.nonfinite_ops or mem.uncovered_ops:
                    raise RuntimeError(f"{where}: bound has unattributable ops")
                rewrites += len(plan.fallbacks)
                rows[fabric][name][mode] = {
                    "static_peak_bytes": mem.peak,
                    "simulated_peak_bytes": max(peaks.values(), default=0.0),
                    "budget_bytes": REFERENCE_BUDGET,
                    "within_budget": mem.peak <= REFERENCE_BUDGET,
                    "gated": mem.gated,
                    "fallbacks": len(plan.fallbacks),
                }
    if not rewrites:
        raise RuntimeError("no faulted compile produced a fallback re-root")
    return {"reference_budget_bytes": REFERENCE_BUDGET, "workloads": rows}
