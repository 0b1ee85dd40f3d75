"""The compile passes: lower -> select -> schedule -> fault_rewrite ->
emit -> validate.

Each pass is a small object with a ``name`` and a ``run(state, ctx)``
method mutating a shared :class:`PlanState`.  The decomposition mirrors
how the paper treats cross-mesh resharding as a compilation problem
(§2.2-§3.2) and how array-redistribution compilers structure the same
work as rewriting passes over an IR:

``lower``
    decompose the resharding into unit communication tasks at the
    strategy's granularity (Figure 2's decomposition);
``select``
    choose the communication strategy; for :class:`~repro.strategies
    .auto.AutoStrategy` this runs the scoring loop — each candidate is
    compiled through the *same* downstream passes and simulated once,
    and the winner's :class:`~repro.core.executor.TimingResult` is kept
    so callers never re-simulate it;
``schedule``
    build the host-level load-balancing problem (Eq. 1-3, with
    degraded-NIC bandwidth discounts under a fault schedule) and run
    the strategy's scheduling algorithm — previously embedded in each
    strategy's ``plan()``;
``fault_rewrite``
    re-root unit tasks whose assigned sender host is down at plan time
    onto the surviving replica host with the best effective bandwidth,
    recording a :class:`~repro.core.plan.FallbackRecord` per rewrite —
    previously buried in ``BroadcastStrategy._reroot``;
``emit``
    the strategy emits concrete :class:`~repro.core.plan.CommOp`\\ s
    following the (possibly rewritten) schedule, with greedy
    load-balanced sender-device selection;
``validate``
    optionally run the static analyzer (:func:`repro.analysis.check_plan`)
    over the emitted plan — coverage, sender authority, write races,
    schedule consistency, deadlock — aborting on any ERROR diagnostic;
    the execution-aware counterpart
    (:func:`repro.core.verify_data.verify_delivery`) is exposed as
    :meth:`CompiledPlan.certify` since it needs a timing outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Protocol

from ..core.executor import TimingResult, simulate_plan
from ..core.plan import CommPlan, FallbackRecord, slice_checksum
from ..core.task import ReshardingTask, UnitCommTask
from ..core.validate import PlanValidationError, raise_on_plan_errors
from ..scheduling import Schedule, SchedulingProblem
from ..sim.faults import FaultSchedule
from ..strategies.base import CommStrategy, LoadTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.diagnostics import AnalysisReport
    from .budget import CompileBudget
    from .pipeline import CompileContext

__all__ = [
    "CompilerPass",
    "PlanState",
    "LowerPass",
    "SelectPass",
    "SchedulePass",
    "FaultRewritePass",
    "EmitPass",
    "ValidatePass",
    "DEFAULT_PASSES",
    "reroot_schedule",
]


class CompilerPass(Protocol):
    """One stage of the plan-compiler pipeline (structural type)."""

    name: str

    def run(self, state: "PlanState", ctx: "CompileContext") -> str:
        """Mutate ``state``; return a one-line detail for diagnostics."""
        ...


@dataclass
class PlanState:
    """Mutable state threaded through the pass pipeline.

    The passes write this state; the context and the strategy are
    read-only inputs to a compile.
    """

    task: ReshardingTask
    strategy: CommStrategy
    #: this compile's deadline ledger (``None``: unbounded); every pass,
    #: and each select candidate's sub-state, charges it
    budget: Optional["CompileBudget"]
    unit_tasks: list[UnitCommTask] = field(default_factory=list)
    problem: Optional[SchedulingProblem] = None
    schedule: Optional[Schedule] = None
    fallbacks: list[FallbackRecord] = field(default_factory=list)
    plan: Optional[CommPlan] = None
    #: timing attached by the select pass when it scored the winner
    timing: Optional[TimingResult] = None
    #: (strategy name, simulated latency) pairs from the select pass
    scores: list[tuple[str, float]] = field(default_factory=list)
    #: structured diagnostics attached by the validate pass
    analysis: Optional["AnalysisReport"] = None

    @property
    def n_ops(self) -> int:
        return 0 if self.plan is None else len(self.plan.ops)


def reroot_schedule(
    task: ReshardingTask,
    unit_tasks: list[UnitCommTask],
    schedule: Schedule,
    faults: FaultSchedule,
    fallbacks: list[FallbackRecord],
) -> int:
    """Re-root scheduled sender hosts that are down at plan time.

    The scheduler may assign a sender host whose NIC is flapped down (or
    permanently dead); rather than launching a doomed broadcast and
    relying on retries, reassign the unit task to the surviving replica
    host with the best effective bandwidth and record the fallback.
    When *every* replica host is down the original assignment is kept —
    the runtime retry machinery is then the only hope.  Returns the
    number of rewrites.

    Re-rooting is **failure-domain-aware**: a survivor outside every
    failure domain of the downed host is preferred over an in-domain one
    even at worse bandwidth — the domain that took the sender down
    (rack PDU, ToR switch) is the single most likely thing to strike
    again, so landing the re-root inside it would re-expose the plan to
    the exact fault it is escaping (analyzer diagnostic F001 proves this
    property statically).  In-domain survivors are used only when no
    out-of-domain replica exists.
    """
    spec = task.cluster.spec
    n = 0
    for ut in unit_tasks:
        if not ut.receivers:
            continue
        host = schedule.assignment[ut.task_id]
        if not faults.host_down(host, 0.0):
            continue
        survivors = [
            h for h in sorted(task.sender_hosts(ut)) if not faults.host_down(h, 0.0)
        ]
        if not survivors:
            continue
        outside = [h for h in survivors if not spec.shares_domain(host, h)]
        pool = outside or survivors
        best = max(pool, key=lambda h: (faults.mean_nic_factor(h), -h))
        fallbacks.append(
            FallbackRecord(
                unit_task_id=ut.task_id,
                from_host=host,
                to_host=best,
                reason="sender-host-down",
            )
        )
        schedule.assignment[ut.task_id] = best
        n += 1
    return n


class LowerPass:
    """Decompose the resharding into unit communication tasks."""

    name = "lower"

    def run(self, state: PlanState, ctx: "CompileContext") -> str:
        state.unit_tasks = state.task.unit_tasks(state.strategy.granularity)
        return (
            f"{len(state.unit_tasks)} unit task(s) at "
            f"{state.strategy.granularity!r} granularity"
        )


class SelectPass:
    """Choose the strategy; score candidates for the auto strategy.

    Every candidate is compiled through the same downstream passes
    (schedule -> fault_rewrite -> emit) and simulated once on the
    context's (possibly lossy) network.  Plans that go fatal under the
    fault scenario are only chosen when no candidate survives.  The
    winner's plan *and* its scored timing are kept on the state, so the
    second simulation the old ``AutoStrategy`` forced on callers is
    gone.
    """

    name = "select"

    def run(self, state: PlanState, ctx: "CompileContext") -> str:
        from ..strategies.auto import AutoStrategy

        strategy = state.strategy
        if not isinstance(strategy, AutoStrategy):
            return f"fixed strategy {strategy.name!r}"

        from .budget import charge_pass

        memory_budget = state.task.cluster.spec.memory_budget
        if memory_budget is not None:
            # Lazy for the same circularity reason as ValidatePass.
            from ..analysis.memory_analysis import static_host_bounds
        sub_passes = [LowerPass(), SchedulePass(), FaultRewritePass(), EmitPass()]
        best: Optional[tuple[bool, bool, float, PlanState]] = None
        state.scores = []
        skipped: list[str] = []
        mem_peaks: dict[str, float] = {}
        for cand in strategy.candidates:
            if not cand.supports(state.task):
                # e.g. switch multicast on a switchless torus: scoring a
                # plan the fabric cannot execute would be meaningless.
                skipped.append(cand.name)
                state.scores.append((cand.name, float("inf")))
                continue
            sub = PlanState(task=state.task, strategy=cand, budget=state.budget)
            for p in sub_passes:
                detail = p.run(sub, ctx)
                charge_pass(sub.budget, p.name, sub, detail)
            result = simulate_plan(
                sub.plan, faults=ctx.faults, retry_policy=ctx.retry_policy
            )
            if sub.budget is not None:
                # simulating a candidate costs roughly its op count
                sub.budget.charge(max(1, sub.n_ops) * 8, "select")
            fatal = result.fault_report is not None and result.fault_report.fatal
            infeasible = False
            if memory_budget is not None and sub.plan is not None:
                peak = static_host_bounds(sub.plan).peak
                mem_peaks[cand.name] = peak
                infeasible = peak > memory_budget
            state.scores.append((cand.name, result.total_time))
            if best is None or (infeasible, fatal, result.total_time) < best[:3]:
                sub.timing = result
                best = (infeasible, fatal, result.total_time, sub)
        if best is None:
            raise ValueError(
                "no auto candidate supports this task on topology "
                f"{state.task.cluster.topo.topology.name!r} "
                f"(skipped: {skipped})"
            )
        if best[0]:
            # Even the lightest candidate busts the budget: the task is
            # memory-infeasible as posed, not merely slow.
            detail = ", ".join(
                f"{name}={peak:.0f}B" for name, peak in sorted(mem_peaks.items())
            )
            raise PlanValidationError(
                f"M003 error: memory budget infeasible — every candidate "
                f"strategy's static peak-buffer bound exceeds memory_budget "
                f"{memory_budget:.0f} B ({detail})"
            )
        winner = best[3]
        state.unit_tasks = winner.unit_tasks
        state.problem = winner.problem
        state.schedule = winner.schedule
        state.fallbacks = winner.fallbacks
        state.plan = winner.plan
        state.timing = winner.timing
        # Record the scoring decision on the winner's telemetry stream,
        # so a trace of the kept timing also explains *why* this plan:
        # one mark per candidate plus the verdict.
        if winner.timing is not None:
            bus = winner.timing.telemetry
            for name, latency in state.scores:
                bus.mark("select.candidate", track="compiler",
                         strategy=name, latency=latency)
            bus.mark("select.winner", track="compiler",
                     strategy=winner.strategy.name, latency=best[2])
        return "scored " + ", ".join(
            f"{n}=skipped" if n in skipped else f"{n}={t:.4g}s"
            for n, t in state.scores
        )


class SchedulePass:
    """Load-balance and order the unit tasks (paper §3.2, Eq. 1-3)."""

    name = "schedule"

    def run(self, state: PlanState, ctx: "CompileContext") -> str:
        if state.plan is not None:  # select already compiled the winner
            return "inherited from select"
        strategy = state.strategy
        scheduler = strategy.scheduler_fn()
        if scheduler is None:
            return "strategy does not schedule"
        faults = ctx.faults if strategy.schedule_uses_faults else None
        state.problem = SchedulingProblem.from_resharding(
            state.task, granularity=strategy.granularity, faults=faults
        )
        state.schedule = scheduler(state.problem)
        return (
            f"{state.schedule.algorithm or strategy.scheduler_name}: "
            f"makespan bound {state.schedule.makespan:.4g}s"
        )


class FaultRewritePass:
    """Re-root assignments off sender hosts that are down at plan time."""

    name = "fault_rewrite"

    def run(self, state: PlanState, ctx: "CompileContext") -> str:
        if state.plan is not None:  # select already compiled the winner
            return "inherited from select"
        strategy = state.strategy
        faults = ctx.faults
        if not strategy.reroot_on_faults or faults is None:
            return "no-op (no faults or strategy does not re-root)"
        if state.schedule is None:
            return "no schedule to rewrite"
        n = reroot_schedule(
            state.task, state.unit_tasks, state.schedule, faults, state.fallbacks
        )
        return f"re-rooted {n} unit task(s)"


class EmitPass:
    """Emit concrete communication ops following the schedule."""

    name = "emit"

    def run(self, state: PlanState, ctx: "CompileContext") -> str:
        if state.plan is not None:  # select already compiled the winner
            return "inherited from select"
        strategy = state.strategy
        plan = CommPlan(
            task=state.task,
            strategy=strategy.name,
            granularity=strategy.granularity,
            data_complete=strategy.data_complete,
        )
        plan.fallbacks = list(state.fallbacks)
        faults = ctx.faults if strategy.emit_uses_faults else None
        load = LoadTracker(state.task.cluster, faults=faults)
        strategy.emit(state.task, plan, state.schedule, load)
        if strategy.gate_on_schedule and state.schedule is not None:
            plan.schedule = state.schedule
        # Stamp every op with its per-slice checksum: the end-to-end
        # integrity mark that lets the executor and verify_data detect
        # gray corruption.  Done here (not in each strategy) so every
        # emission backend gets it for free.
        plan.ops = [
            replace(op, checksum=slice_checksum(state.task, op))
            for op in plan.ops
        ]
        state.plan = plan
        return f"{len(plan.ops)} op(s)"


class ValidatePass:
    """Statically prove the plan is well-formed before anything runs.

    Delegates to the analyzer (:func:`repro.analysis.check_plan`):
    coverage, sender authority, dependency sanity, write races, schedule
    consistency after re-rooting, and wait-for deadlock.  The structured
    report is stashed on ``state.analysis``; any ERROR diagnostic aborts
    compilation with every finding (stable code, op ids) in the message.
    """

    name = "validate"

    def run(self, state: PlanState, ctx: "CompileContext") -> str:
        if not ctx.validate:
            return "skipped (ctx.validate=False)"
        assert state.plan is not None
        # the cluster's memory budget, if any, is the plan's own
        state.analysis = raise_on_plan_errors(state.plan, faults=ctx.faults)
        if not state.plan.data_complete:
            return f"skipped ({state.plan.strategy!r} plans carry no data)"
        n_receivers = len(state.plan.task.dst_mesh.devices)
        return f"coverage ok: {len(state.plan.ops)} op(s), {n_receivers} receiver(s)"


def DEFAULT_PASSES() -> list[CompilerPass]:
    """A fresh instance of the standard pass pipeline, in order."""
    return [
        LowerPass(),
        SelectPass(),
        SchedulePass(),
        FaultRewritePass(),
        EmitPass(),
        ValidatePass(),
    ]
