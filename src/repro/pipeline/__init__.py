"""Pipeline-parallel schedules and execution (paper §4)."""

from .executor import PipelineResult, simulate_pipeline
from .interleaved import InterleavedJob, interleaved_order
from .memory import (
    StageMemory,
    analytic_peak_inflight,
    eager_memory_increase,
    memory_report,
)
from .schedules import (
    SCHEDULE_NAMES,
    Task,
    eager_warmup,
    fifo_warmup,
    gpipe_order,
    one_f_one_b_order,
    schedule_job,
    split_backward,
    stage_order,
)
from .stage import CommEdge, PipelineJob, StageProfile
from .timeline import CommEntry, TimelineEntry, comms_from_spans, timeline_from_spans

__all__ = [
    "StageProfile",
    "CommEdge",
    "PipelineJob",
    "Task",
    "SCHEDULE_NAMES",
    "gpipe_order",
    "one_f_one_b_order",
    "stage_order",
    "schedule_job",
    "split_backward",
    "fifo_warmup",
    "eager_warmup",
    "simulate_pipeline",
    "PipelineResult",
    "TimelineEntry",
    "CommEntry",
    "timeline_from_spans",
    "comms_from_spans",
    "analytic_peak_inflight",
    "eager_memory_increase",
    "memory_report",
    "StageMemory",
    "InterleavedJob",
    "interleaved_order",
]
