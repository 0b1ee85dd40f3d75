"""The staged plan compiler: ``compile_resharding(task, ctx) -> CompiledPlan``.

One entry point now serves every consumer of a resharding plan — the
public :func:`repro.core.api.reshard`, the pipeline executor's
cross-mesh stage edges, the auto strategy's scoring loop, and the
resharding service — so they all share one compile path, one timing
model, and one content-addressed cache.

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
from ..core.validate import PlanValidationError, raise_on_plan_errors
from ..core.verify_data import IntegrityReport, verify_delivery
from ..sim.faults import FaultSchedule, RetryPolicy
from ..strategies import make_strategy
from ..strategies.base import CommStrategy
from .budget import CompileBudget, CompileTimeout, charge_pass
from .cache import (
    PlanCache,
    TimingMemo,
    default_plan_cache,
    plan_signature,
    timing_signature,
)
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
            charge_pass(state.budget, p.name, state, detail)
            if p.name in ctx.dump_after and ctx.on_dump is not None:
                ctx.on_dump(p.name, state)
        return diag


#: sentinel: "use the process-wide default cache" (``cache=None`` disables)
USE_DEFAULT_CACHE: Any = object()


@dataclass
class CompileContext:
    """Everything a compile depends on besides the task itself.

    ``strategy`` may be a registry name (instantiated via
    :func:`~repro.strategies.make_strategy` with ``strategy_kwargs``,
    once per compile) or a ready :class:`~repro.strategies.CommStrategy`
    instance.  ``faults``/``retry_policy`` are the compile's fault
    scenario, and this is the only place one is set (no strategy carries
    one); both feed the cache signature.  ``cache`` defaults to the
    process-wide :func:`~repro.compiler.cache.default_plan_cache`; pass
    ``None`` to compile uncached.  The per-host memory budget is the
    task's cluster's (``ClusterSpec.memory_budget``), never the
    context's.  A compile reads the context and writes none of it.
    """

    strategy: Union[str, CommStrategy] = "broadcast"
    strategy_kwargs: dict[str, Any] = field(default_factory=dict)
    faults: Optional[FaultSchedule] = None
    retry_policy: Optional[RetryPolicy] = None
    cache: Any = USE_DEFAULT_CACHE
    #: deterministic compile deadline in nominal seconds (see
    #: :mod:`repro.compiler.budget`); ``None`` leaves compiles unbounded
    deadline: Optional[float] = None
    #: run the static coverage validator as the final pass
    validate: bool = False
    #: pass names after which ``on_dump(name, state)`` fires
    dump_after: tuple[str, ...] = ()
    on_dump: Optional[Callable[[str, PlanState], None]] = None
    passes: Optional[list[CompilerPass]] = None

    def resolved_cache(self) -> Optional[PlanCache]:
        if self.cache is USE_DEFAULT_CACHE:
            return default_plan_cache()
        return self.cache


@dataclass
class CompiledPlan:
    """A compiled plan plus everything learned while compiling it.

    ``timing`` is populated by the select pass (the auto strategy's
    scored winner) or lazily by :meth:`ensure_timing` — either way a
    consumer never simulates the same plan twice.  ``faults`` and
    ``retry_policy`` record the scenario the plan was compiled (and is
    simulated) under; they are part of the cache signature.
    ``timings`` is the :class:`~repro.compiler.cache.TimingMemo` of the
    cache the compile was given (``None`` for ``cache=None``), through
    which :meth:`ensure_timing` shares results.
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
    timings: Optional[TimingMemo] = field(default=None, init=False, repr=False)

    def ensure_timing(self) -> TimingResult:
        """Simulate the plan once; memoized for every later caller.

        A plan compiled through a cache first asks that cache's timing memo:
        when another compile through that cache already simulated a plan
        equal on everything a run reads (see
        :func:`~repro.compiler.cache.timing_signature`) under the same
        faults, this plan shares that :class:`TimingResult` instead of
        simulating again.  A shared result is read-only, as a plan-cache
        hit's already is; its op ids and op-id sets are this plan's too,
        so :meth:`certify` joins them with this plan's own ops.
        """
        if self.timing is None:
            memo = self.timings
            if memo is None:
                self.timing = self._simulate()
            else:
                key = timing_signature(self.plan, self.faults, self.retry_policy)
                timing = memo.lookup(key)
                if timing is None:
                    timing = self._simulate()
                    memo.store(key, timing)
                self.timing = timing
        return self.timing

    def _simulate(self) -> TimingResult:
        return simulate_plan(
            self.plan, faults=self.faults, retry_policy=self.retry_policy
        )

    @property
    def total_time(self) -> float:
        return self.ensure_timing().total_time

    def ensure_validated(self) -> "CompiledPlan":
        """Run the validate pass's check on a cached plan (idempotent).

        Held to the compile's own faults and its cluster's memory budget,
        so a warm hit raises exactly what a cold ``validate=True`` compile
        would.
        """
        if not self.validated:
            raise_on_plan_errors(self.plan, self.faults)
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

    A ``validate=True`` compile through the default pass list that
    raises :class:`~repro.core.validate.PlanValidationError` is
    remembered by the cache (:meth:`~repro.compiler.cache.PlanCache
    .reject`); a later such compile of the same signature misses the
    lookup as before, then re-raises the same message without running a
    pass.  It is served only to a compile without a ``deadline``: under
    one, the rejected compile might not have reached its verdict in time.
    """
    if ctx is None:
        ctx = CompileContext(**ctx_kwargs)
    elif ctx_kwargs:
        raise ValueError("pass either a CompileContext or kwargs, not both")
    # The deadline bounds one compile: open a fresh ledger per call, held
    # by the compile's own state, so a reused context never inherits spend
    # from an earlier compile.  It is checked before the cache lookup so a
    # bad value raises the same way whether or not the plan is cached.
    budget = (
        CompileBudget.from_deadline(ctx.deadline) if ctx.deadline is not None else None
    )
    strategy = make_strategy(ctx.strategy, **ctx.strategy_kwargs)

    cache = ctx.resolved_cache()
    signature: Optional[str] = None
    remembering: Optional[PlanCache] = None
    if cache is not None:
        strategy_key = strategy.cache_key()
        if strategy_key is not None:
            signature = plan_signature(task, strategy_key, ctx.faults, ctx.retry_policy)
            hit = cache.lookup(signature)
            if hit is not None:
                if ctx.validate:
                    hit.ensure_validated()
                return hit
            # Only a validate=True compile through the default passes has
            # one verdict per signature: the rejections' readers and writers.
            if ctx.validate and ctx.passes is None:
                remembering = cache
                if ctx.deadline is None:
                    rejected = cache.rejections.lookup(signature)
                    if rejected is not None:
                        raise PlanValidationError(rejected)

    state = PlanState(task=task, strategy=strategy, budget=budget)
    try:
        diagnostics = PassManager(ctx.passes).run(state, ctx)
    except PlanValidationError as rejection:
        if remembering is not None and signature is not None:
            remembering.reject(signature, str(rejection))
        raise
    assert state.plan is not None
    compiled = CompiledPlan(
        plan=state.plan,
        signature=signature,
        diagnostics=diagnostics,
        faults=ctx.faults,
        retry_policy=ctx.retry_policy,
        timing=state.timing,
        validated=ctx.validate,
        scores=list(state.scores),
    )
    if cache is not None:
        compiled.timings = cache.timings
    if signature is not None:
        cache.store(signature, compiled)
    return compiled
