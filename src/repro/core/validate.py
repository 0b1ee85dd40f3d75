"""Static validation of communication plans.

:func:`verify_plan_coverage` proves — without moving any bytes — that a
CommPlan delivers every element each destination device needs and that
every op reads data its sender actually holds.  It is the cheap
counterpart of the NumPy data plane (`repro.core.data`): the data plane
checks values, this checks *regions*, so it also works for plans too
large to materialize.

Since the static-analysis package landed, this module is a thin raising
facade over :func:`repro.analysis.check_plan`: the full analyzer runs
(coverage, sender authority, dependency sanity, write races, schedule
consistency, deadlock) and any ERROR-severity diagnostic aborts with a
:class:`PlanValidationError` listing every finding with its stable code.
Callers that want the structured report instead of an exception should
call :func:`repro.analysis.check_plan` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .plan import CommPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.diagnostics import AnalysisReport
    from ..sim.faults import FaultSchedule

__all__ = [
    "PlanValidationError",
    "CoverageReport",
    "raise_on_plan_errors",
    "verify_plan_coverage",
]


class PlanValidationError(ValueError):
    """The plan is structurally unable to perform its resharding."""


@dataclass
class CoverageReport:
    """Result of a successful validation."""

    n_ops: int
    n_receivers: int
    delivered_regions: dict[int, int] = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"CoverageReport(ops={self.n_ops}, receivers={self.n_receivers})"
        )


def raise_on_plan_errors(
    plan: CommPlan,
    faults: "Optional[FaultSchedule]" = None,
    memory_budget: Optional[float] = None,
) -> "AnalysisReport":
    """Run :func:`repro.analysis.check_plan`; raise on any ERROR.

    ``faults`` and ``memory_budget`` are the compile's own (see
    :func:`~repro.analysis.check_plan`), so a cached plan is held to the
    same bar as a fresh compile.  The exception message carries every
    ERROR diagnostic (code, op ids, message), one per line.
    """
    # Imported here: repro.analysis builds plans (loader) and therefore
    # imports repro.core; a module-level import would be circular.
    from ..analysis.plan_checker import check_plan

    report = check_plan(plan, faults=faults, memory_budget=memory_budget)
    errors = report.errors
    if errors:
        raise PlanValidationError("\n".join(diag.format() for diag in errors))
    return report


def verify_plan_coverage(plan: CommPlan) -> CoverageReport:
    """Raise :class:`PlanValidationError` unless the plan is complete."""
    if not plan.data_complete:
        raise PlanValidationError(
            f"strategy {plan.strategy!r} plans carry no data by design"
        )
    raise_on_plan_errors(plan)
    return CoverageReport(
        n_ops=len(plan.ops), n_receivers=len(plan.task.dst_mesh.devices)
    )
