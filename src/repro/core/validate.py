"""Static validation of communication plans.

:func:`raise_on_plan_errors` proves — without moving any bytes — that a
data-carrying CommPlan delivers every element each destination device
needs and that every op reads data its sender actually holds.  It is
the cheap counterpart of the NumPy data plane (`repro.core.data`): the
data plane checks values, this checks *regions*, so it also works for
plans too large to materialize.

It is a thin raising facade over :func:`repro.analysis.check_plan`: the
full analyzer runs (coverage, sender authority, dependency sanity, write
races, schedule consistency, deadlock, memory budget) and any
ERROR-severity diagnostic aborts with a :class:`PlanValidationError`
listing every finding with its stable code.  Callers that want the
structured report instead of an exception should call
:func:`repro.analysis.check_plan` directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .plan import CommPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.diagnostics import AnalysisReport
    from ..sim.faults import FaultSchedule

__all__ = ["PlanValidationError", "raise_on_plan_errors"]


class PlanValidationError(ValueError):
    """The plan is structurally unable to perform its resharding."""


def raise_on_plan_errors(
    plan: CommPlan, faults: "Optional[FaultSchedule]" = None
) -> "AnalysisReport":
    """Run :func:`repro.analysis.check_plan`; raise on any ERROR.

    ``faults`` are the compile's own and the memory budget is the plan's
    cluster's (see :func:`~repro.analysis.check_plan`), so a cached plan
    is held to the same bar as a fresh compile.  The exception message
    carries every ERROR diagnostic (code, op ids, message), one per line.
    """
    # Imported here: repro.analysis builds plans (loader) and therefore
    # imports repro.core; a module-level import would be circular.
    from ..analysis.plan_checker import check_plan

    report = check_plan(plan, faults=faults)
    errors = report.errors
    if errors:
        raise PlanValidationError("\n".join(diag.format() for diag in errors))
    return report
