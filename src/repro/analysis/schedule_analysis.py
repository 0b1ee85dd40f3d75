"""Static analysis of pipeline schedules: memory bounds and structure.

The executor measures peak in-flight activations by running a schedule
(``PipelineResult.peak_activation_counts``); this module *bounds* them
without running anything, from the executor's own reading of the
per-device task orders (:func:`repro.pipeline.schedules.read_orders`).
It flags schedules that cannot fit a device's memory capacity
(``S001``, stepping activations by the executor's
:data:`~repro.pipeline.schedules.ACTIVATION_DELTA`) and every problem
the reading finds (``S002``; the executor raises on the first).
Deadlock detection over the same orders (``D002``) is delegated to
:func:`repro.analysis.deadlock.check_stage_orders_deadlock`.
"""

from __future__ import annotations

from typing import Optional

from ..pipeline.schedules import ACTIVATION_DELTA, OrderReading, Task
from ..pipeline.schedules import read_orders, schedule_job
from ..pipeline.stage import PipelineJob
from .deadlock import check_stage_orders_deadlock
from .diagnostics import AnalysisReport

__all__ = [
    "static_peak_inflight",
    "check_stage_orders",
    "analyze_pipeline_schedule",
]


def static_peak_inflight(order: list[Task]) -> int:
    """Peak concurrently-stored activations implied by one device's order."""
    live = peak = 0
    for t in order:
        live += ACTIVATION_DELTA[t.kind]
        peak = max(peak, live)
    return peak


def _check_memory(
    job: PipelineJob, reading: OrderReading, report: AnalysisReport
) -> None:
    """S001: each device's params plus its peak live activation bytes
    against the tightest capacity among its stages."""
    live: dict[int, float] = {}
    peak: dict[int, float] = {}
    for s, kind, _mb in reading.in_device_order():
        d = reading.device_of[s]
        step = ACTIVATION_DELTA[kind] * job.stages[s].activation_bytes
        live[d] = live.get(d, 0.0) + step
        peak[d] = max(peak.get(d, 0.0), live[d])
    for d, act in peak.items():
        stages = [p for p in job.stages if reading.device_of[p.stage_id] == d]
        caps = [p.memory_capacity for p in stages if p.memory_capacity > 0]
        params = sum(p.params_bytes for p in stages)
        if caps and params + act > min(caps):
            ids = tuple(p.stage_id for p in stages)
            report.add(
                "S001",
                f"stage(s) {', '.join(map(str, ids))} on device {d} need "
                f"{params + act:.0f} bytes ({params:.0f} params + {act:.0f} "
                f"peak live activations), over the {min(caps):.0f}-byte capacity",
                task_ids=ids,
            )


def check_stage_orders(
    orders: list[list[Task]],
    n_microbatches: int,
    job: Optional[PipelineJob] = None,
) -> AnalysisReport:
    """Analyze explicit per-device task orders: S001/S002 plus D002."""
    report = AnalysisReport(subject="pipeline-schedule")
    reading = read_orders(orders, n_microbatches, job)
    for s, message in reading.problems:
        report.add("S002", message, task_ids=(s,))
    if job is not None:
        _check_memory(job, reading, report)
    report.extend(check_stage_orders_deadlock(orders, job))
    return report


def analyze_pipeline_schedule(
    schedule: str,
    n_stages: int,
    n_microbatches: int,
    job: Optional[PipelineJob] = None,
    delay_bw_weight: bool = False,
) -> AnalysisReport:
    """Analyze a named schedule (gpipe / 1f1b / eager_1f1b) statically."""
    orders = schedule_job(
        schedule, n_stages, n_microbatches, delay_bw_weight=delay_bw_weight
    )
    report = check_stage_orders(orders, n_microbatches, job)
    report.subject = f"pipeline-schedule[{schedule}]"
    return report
