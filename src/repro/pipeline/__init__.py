"""Pipeline-parallel schedules and execution (paper §4)."""

from .executor import PipelineResult, simulate_pipeline
from .interleaved import InterleavedJob, interleaved_order
from .schedules import (
    SCHEDULE_NAMES,
    Task,
    analytic_peak_inflight,
    eager_memory_increase,
    eager_warmup,
    fifo_warmup,
    one_f_one_b_order,
    schedule_job,
    split_backward,
)
from .stage import CommEdge, PipelineJob, StageProfile

__all__ = [
    "StageProfile",
    "CommEdge",
    "PipelineJob",
    "Task",
    "SCHEDULE_NAMES",
    "one_f_one_b_order",
    "schedule_job",
    "split_backward",
    "fifo_warmup",
    "eager_warmup",
    "simulate_pipeline",
    "PipelineResult",
    "analytic_peak_inflight",
    "eager_memory_increase",
    "InterleavedJob",
    "interleaved_order",
]
