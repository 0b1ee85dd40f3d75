"""Static analysis: plan verification, deadlock detection, determinism lint.

The dynamic checkers (:mod:`repro.core.verify_data`, the runtime kernel)
catch bad plans by executing them; this package proves properties
*before* execution:

* :func:`check_plan` — write races, coverage gaps, dependency sanity,
  sender authority, re-rooting consistency of a
  :class:`~repro.core.plan.CommPlan` (``P001``-``P008``), plus
  failure-domain safety of re-roots and schedules (``F001``/``F003``);
* :func:`check_plan_deadlock` / :func:`check_stage_orders_deadlock` —
  wait-for cycles over schedule gating and kernel channel acquisitions
  (``D001``/``D002``);
* :func:`analyze_pipeline_schedule` — static in-flight activation
  bounds and structural checks of 1F1B-family schedules
  (``S001``/``S002``);
* :func:`static_host_bounds` / :func:`check_plan_memory` — abstract
  interpretation of per-host transient buffer bytes: a sound static
  upper bound on the simulated peak, checked against ``memory_budget``
  (``M001``-``M003``);
* :func:`lint_paths` — AST rules banning nondeterminism and raw byte
  math in the repo's own code (``L001``-``L004``).

Entry points: the compiler's ``validate`` pass, ``python -m repro
analyze`` and ``python -m repro lint``, and CI's lint-and-analyze job.
See ``docs/static_analysis.md`` for the diagnostic catalog.
"""

from .deadlock import (
    check_plan_deadlock,
    check_stage_orders_deadlock,
    find_cycle,
)
from .diagnostics import CATALOG, AnalysisReport, Diagnostic, Severity
from .lint import lint_file, lint_paths, lint_source
from .loader import PlanFixture, load_plan_fixture, plan_from_dict
from .memory_analysis import MemoryAnalysis, check_plan_memory, static_host_bounds
from .plan_checker import check_plan
from .schedule_analysis import (
    analyze_pipeline_schedule,
    check_stage_orders,
    static_peak_inflight,
)

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "CATALOG",
    "check_plan",
    "check_plan_deadlock",
    "check_stage_orders",
    "check_stage_orders_deadlock",
    "find_cycle",
    "analyze_pipeline_schedule",
    "static_peak_inflight",
    "MemoryAnalysis",
    "static_host_bounds",
    "check_plan_memory",
    "lint_source",
    "lint_file",
    "lint_paths",
    "PlanFixture",
    "load_plan_fixture",
    "plan_from_dict",
]
