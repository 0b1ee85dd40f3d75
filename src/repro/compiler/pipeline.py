"""The staged plan compiler: ``compile_resharding(task, ctx) -> CompiledPlan``.

One entry point now serves every consumer of a resharding plan — the
public :func:`repro.core.api.reshard`, the pipeline executor's
cross-mesh stage edges, the auto strategy's scoring loop, and recovery
:func:`repro.recovery.replan.replan` — so they all share one compile
path, one timing model, and one content-addressed cache.

The compiler is an explicit pass manager over :class:`~repro.compiler
.passes.PlanState` (see :mod:`repro.compiler.passes` for the pass
pipeline itself).  Each pass run is instrumented with wall time and
op-count deltas (:class:`PassTiming`), and a ``dump_after`` hook lets
the CLI print the evolving plan after any pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from ..core.executor import TimingResult, simulate_plan
from ..core.plan import CommPlan
from ..core.task import ReshardingTask
from ..core.validate import verify_plan_coverage
from ..core.verify_data import IntegrityReport, verify_delivery
from ..sim.faults import FaultSchedule, RetryPolicy
from ..strategies import make_strategy
from ..strategies.base import CommStrategy
from .budget import CompileBudget, CompileTimeout, charge_pass
from .cache import PlanCache, default_plan_cache, plan_signature
from .passes import DEFAULT_PASSES, CompilerPass, PlanState

__all__ = [
    "PassTiming",
    "CompileDiagnostics",
    "PassManager",
    "CompileContext",
    "CompiledPlan",
    "compile_resharding",
    "CompileTimeout",
    "USE_DEFAULT_CACHE",
]


@dataclass(frozen=True)
class PassTiming:
    """Instrumentation record for one pass run."""

    name: str
    seconds: float
    ops_before: int
    ops_after: int
    detail: str = ""

    @property
    def op_delta(self) -> int:
        return self.ops_after - self.ops_before


@dataclass
class CompileDiagnostics:
    """Per-pass instrumentation for one compile."""

    passes: list[PassTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(p.seconds for p in self.passes)

    def format_table(self) -> str:
        """Human-readable per-pass timing/op-delta table."""
        lines = [f"{'pass':<14}{'wall':>10}  {'ops':>9}  detail"]
        for p in self.passes:
            delta = f"{p.op_delta:+d}" if p.op_delta else "."
            lines.append(
                f"{p.name:<14}{p.seconds * 1e3:>8.3f}ms  {delta:>9}  {p.detail}"
            )
        lines.append(f"{'total':<14}{self.total_seconds * 1e3:>8.3f}ms")
        return "\n".join(lines)


class PassManager:
    """Run a pass list over a :class:`PlanState`, instrumenting each pass."""

    def __init__(self, passes: Optional[list[CompilerPass]] = None) -> None:
        self.passes = list(passes) if passes is not None else DEFAULT_PASSES()

    def run(self, state: PlanState, ctx: "CompileContext") -> CompileDiagnostics:
        diag = CompileDiagnostics()
        for p in self.passes:
            ops_before = state.n_ops
            # repro-lint: allow[L001] pass-timing telemetry only; never read by planning
            t0 = time.perf_counter()
            detail = p.run(state, ctx) or ""
            seconds = time.perf_counter() - t0  # repro-lint: allow[L001] telemetry only
            diag.passes.append(
                PassTiming(
                    name=p.name,
                    seconds=seconds,
                    ops_before=ops_before,
                    ops_after=state.n_ops,
                    detail=detail,
                )
            )
            charge_pass(ctx.budget, p.name, state, detail)
            if p.name in ctx.dump_after and ctx.on_dump is not None:
                ctx.on_dump(p.name, state)
        return diag


#: sentinel: "use the process-wide default cache" (``cache=None`` disables)
USE_DEFAULT_CACHE: Any = object()


@dataclass
class CompileContext:
    """Everything a compile depends on besides the task itself.

    ``strategy`` may be a registry name (instantiated via
    :func:`~repro.strategies.make_strategy` with ``strategy_kwargs``) or
    a ready :class:`~repro.strategies.CommStrategy` instance.  Context
    ``faults``/``retry_policy`` override the strategy's own; both feed
    the cache signature.  ``cache`` defaults to the process-wide
    :func:`~repro.compiler.cache.default_plan_cache`; pass ``None`` to
    compile uncached.
    """

    strategy: Union[str, CommStrategy] = "broadcast"
    strategy_kwargs: dict[str, Any] = field(default_factory=dict)
    faults: Optional[FaultSchedule] = None
    retry_policy: Optional[RetryPolicy] = None
    cache: Any = USE_DEFAULT_CACHE
    #: deterministic compile deadline in nominal seconds (see
    #: :mod:`repro.compiler.budget`); ``None`` leaves compiles unbounded
    deadline: Optional[float] = None
    #: the per-compile ledger; reset by ``compile_resharding`` per call
    budget: Optional[CompileBudget] = None
    #: run the static coverage validator as the final pass
    validate: bool = False
    #: per-host transient buffer budget (bytes) for this compile; when
    #: ``None`` the task's :class:`~repro.sim.cluster.ClusterSpec`
    #: ``memory_budget`` (if any) applies.  Feeds the cache signature
    #: (only when set), the select pass's feasibility scoring (M003),
    #: and the validate pass (M001).
    memory_budget: Optional[float] = None
    #: pass names after which ``on_dump(name, state)`` fires
    dump_after: tuple[str, ...] = ()
    on_dump: Optional[Callable[[str, PlanState], None]] = None
    passes: Optional[list[CompilerPass]] = None

    def resolved_strategy(self) -> CommStrategy:
        if isinstance(self.strategy, CommStrategy):
            if self.strategy_kwargs:
                raise ValueError("cannot pass strategy_kwargs with an instance")
            return self.strategy
        strategy = make_strategy(self.strategy, **self.strategy_kwargs)
        # Rebind so repeated compiles through one context reuse the
        # instance (and, for auto, its accumulated last_scores).
        self.strategy = strategy
        return strategy

    def resolved_cache(self) -> Optional[PlanCache]:
        if self.cache is USE_DEFAULT_CACHE:
            return default_plan_cache()
        return self.cache

    def effective_memory_budget(self, task: ReshardingTask) -> Optional[float]:
        """The budget in force for ``task``: context override, else spec."""
        if self.memory_budget is not None:
            return self.memory_budget
        return task.cluster.spec.memory_budget

    def effective_faults(self, strategy: CommStrategy) -> Optional[FaultSchedule]:
        if self.faults is not None:
            return self.faults
        return getattr(strategy, "faults", None)

    def effective_retry_policy(self, strategy: CommStrategy) -> Optional[RetryPolicy]:
        if self.retry_policy is not None:
            return self.retry_policy
        return getattr(strategy, "retry_policy", None)


@dataclass
class CompiledPlan:
    """A compiled plan plus everything learned while compiling it.

    ``timing`` is populated by the select pass (the auto strategy's
    scored winner) or lazily by :meth:`ensure_timing` — either way a
    consumer never simulates the same plan twice.  ``faults`` and
    ``retry_policy`` record the scenario the plan was compiled (and is
    simulated) under; they are part of the cache signature.
    """

    plan: CommPlan
    signature: Optional[str] = None
    diagnostics: CompileDiagnostics = field(default_factory=CompileDiagnostics)
    faults: Optional[FaultSchedule] = None
    retry_policy: Optional[RetryPolicy] = None
    timing: Optional[TimingResult] = None
    validated: bool = False
    #: strategy-choice scores from the select pass (auto strategy only)
    scores: list[tuple[str, float]] = field(default_factory=list)

    @property
    def strategy_name(self) -> str:
        return self.plan.strategy

    def ensure_timing(self) -> TimingResult:
        """Simulate the plan once; memoized for every later caller."""
        if self.timing is None:
            self.timing = simulate_plan(
                self.plan, faults=self.faults, retry_policy=self.retry_policy
            )
        return self.timing

    @property
    def total_time(self) -> float:
        return self.ensure_timing().total_time

    def ensure_validated(self) -> "CompiledPlan":
        """Run the static coverage check (idempotent)."""
        if not self.validated:
            if self.plan.data_complete:
                verify_plan_coverage(self.plan)
            self.validated = True
        return self

    def certify(self, strict: bool = True) -> IntegrityReport:
        """Execution-aware data-plane integrity check (verify_data)."""
        return verify_delivery(self.plan, timing=self.ensure_timing(), strict=strict)


def compile_resharding(
    task: ReshardingTask,
    ctx: Optional[CompileContext] = None,
    **ctx_kwargs,
) -> CompiledPlan:
    """Compile ``task`` through the pass pipeline, cache-aware.

    The cache is consulted only when the strategy exposes a canonical
    :meth:`~repro.strategies.CommStrategy.cache_key` (custom subclasses
    without one compile uncached rather than wrongly).  A hit returns
    the stored :class:`CompiledPlan` — including its memoized timing —
    without running any pass.
    """
    if ctx is None:
        ctx = CompileContext(**ctx_kwargs)
    elif ctx_kwargs:
        raise ValueError("pass either a CompileContext or kwargs, not both")
    # The deadline bounds one compile: open a fresh ledger per call so a
    # reused context never inherits spend from an earlier compile.  It is
    # built before the cache lookup so a bad deadline raises the same way
    # whether or not the plan is already cached.
    budget = (
        CompileBudget.from_deadline(ctx.deadline) if ctx.deadline is not None else None
    )
    strategy = ctx.resolved_strategy()
    faults = ctx.effective_faults(strategy)
    retry_policy = ctx.effective_retry_policy(strategy)

    cache = ctx.resolved_cache()
    signature: Optional[str] = None
    epoch = 0
    if cache is not None:
        strategy_key = strategy.cache_key()
        if strategy_key is not None:
            # A context-level budget override shapes the compile (select
            # feasibility, validation), so it must shape the signature —
            # folded in only when set, keeping budget-free signatures
            # byte-identical to before.
            if ctx.memory_budget is not None:
                strategy_key = strategy_key + (
                    ("memory_budget", ctx.memory_budget),
                )
            epoch = cache.epoch
            signature = plan_signature(
                task, strategy_key, faults, retry_policy, epoch=epoch
            )
            hit = cache.lookup(signature)
            if hit is not None:
                if ctx.validate:
                    hit.ensure_validated()
                return hit

    ctx.budget = budget
    state = PlanState(task=task, strategy=strategy)
    diagnostics = PassManager(ctx.passes).run(state, ctx)
    assert state.plan is not None
    compiled = CompiledPlan(
        plan=state.plan,
        signature=signature,
        diagnostics=diagnostics,
        faults=faults,
        retry_policy=retry_policy,
        timing=state.timing,
        validated=ctx.validate,
        scores=list(state.scores),
    )
    if signature is not None:
        cache.store(signature, compiled, epoch=epoch)
    return compiled
