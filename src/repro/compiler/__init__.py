"""Staged plan compiler for cross-mesh resharding.

``compile_resharding(task, ctx) -> CompiledPlan`` runs an explicit pass
pipeline (lower -> select -> schedule -> fault_rewrite -> emit ->
validate) behind a content-addressed plan cache.  See
``docs/architecture.md`` for the full tour.
"""

from .budget import NODES_PER_SECOND, CompileBudget, CompileTimeout
from .cache import (
    CacheStats,
    PlanCache,
    default_plan_cache,
    plan_signature,
    reset_default_plan_cache,
    task_signature,
)
from .edge import EdgeResharding
from .passes import (
    DEFAULT_PASSES,
    EmitPass,
    FaultRewritePass,
    LowerPass,
    PlanState,
    SchedulePass,
    SelectPass,
    ValidatePass,
)
from .pipeline import (
    USE_DEFAULT_CACHE,
    CompileContext,
    CompiledPlan,
    CompileDiagnostics,
    PassManager,
    PassTiming,
    compile_resharding,
)
from .resim import (
    ResimCache,
    ResimStats,
    SimCheckpoint,
    default_resim_cache,
    reset_default_resim_cache,
    resimulate,
)

__all__ = [
    "compile_resharding",
    "CompileContext",
    "CompiledPlan",
    "CompileDiagnostics",
    "PassManager",
    "PassTiming",
    "PlanState",
    "LowerPass",
    "SelectPass",
    "SchedulePass",
    "FaultRewritePass",
    "EmitPass",
    "ValidatePass",
    "DEFAULT_PASSES",
    "PlanCache",
    "CacheStats",
    "CompileBudget",
    "CompileTimeout",
    "NODES_PER_SECOND",
    "plan_signature",
    "task_signature",
    "default_plan_cache",
    "reset_default_plan_cache",
    "EdgeResharding",
    "USE_DEFAULT_CACHE",
    "ResimCache",
    "ResimStats",
    "SimCheckpoint",
    "resimulate",
    "default_resim_cache",
    "reset_default_resim_cache",
]
