"""Broadcast-based resharding — the paper's strategy (§3.1 + §3.2).

Each unit task is served by a single chunk-pipelined ring broadcast from
one sender replica to every receiver that overlaps the slice; receivers
crop their required sub-region locally.  The edge cost of additional
receiving hosts is ``t/K`` per host, so one broadcast per unit task is
enough and latency approaches the lower bound ``t``.

Sender hosts and the launch order of the unit tasks come from a
scheduling algorithm (§3.2); the default is the paper's ensemble of DFS
with pruning and randomized greedy.  The schedule is attached to the
plan so the executor can gate task launches per Eq. 3.

Under a fault schedule, the compiler's ``fault_rewrite`` pass re-roots
unit tasks whose assigned sender host is down onto a surviving replica
host before emission (see :class:`repro.compiler.passes
.FaultRewritePass`); emission then simply follows the (rewritten)
schedule.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .. import checks
from ..core.plan import BroadcastOp, CommOp, CommPlan
from ..core.task import ReshardingTask
from ..scheduling import SCHEDULERS, Schedule, SchedulingProblem
from .base import CommStrategy

__all__ = ["BroadcastStrategy", "adaptive_chunks", "TARGET_CHUNK_BYTES", "MAX_CHUNKS"]

SchedulerLike = Union[str, Callable[[SchedulingProblem], Schedule]]


#: chunks are sized to amortize per-hop latency; 1 GB messages get the
#: paper's "K ~ 100" while small messages degrade gracefully to few chunks
TARGET_CHUNK_BYTES = 8 << 20
MAX_CHUNKS = 128


def adaptive_chunks(nbytes: float) -> int:
    """Pick the pipeline chunk count for one broadcast of ``nbytes``."""
    if nbytes <= 0:
        return 1
    return max(1, min(MAX_CHUNKS, int(nbytes // TARGET_CHUNK_BYTES)))


class BroadcastStrategy(CommStrategy):
    name = "broadcast"
    emit_uses_faults = True
    schedule_uses_faults = True
    reroot_on_faults = True

    def __init__(
        self,
        scheduler: SchedulerLike = "ensemble",
        n_chunks: Optional[int] = None,
        gate_on_schedule: bool = True,
        granularity: str = "intersection",
    ) -> None:
        self.granularity = granularity
        if isinstance(scheduler, str):
            if scheduler not in SCHEDULERS:
                raise ValueError(
                    f"unknown scheduler {scheduler!r}; options: {sorted(SCHEDULERS)}"
                )
            self._scheduler = SCHEDULERS[scheduler]
            self.scheduler_name = scheduler
        else:
            self._scheduler = scheduler
            self.scheduler_name = getattr(scheduler, "__name__", "custom")
        if n_chunks is not None:
            checks.integer("n_chunks", n_chunks, 1)
        self.n_chunks = None if n_chunks is None else int(n_chunks)
        self.gate_on_schedule = gate_on_schedule

    def scheduler_fn(self):
        return self._scheduler

    def cache_key(self) -> Optional[tuple]:
        if SCHEDULERS.get(self.scheduler_name) is not self._scheduler:
            # A user-supplied scheduler callable has no canonical
            # signature; make the compile uncacheable rather than wrong.
            return None
        return (
            self.name,
            self.granularity,
            self.scheduler_name,
            self.n_chunks,
            self.gate_on_schedule,
        )

    def emit(self, task: ReshardingTask, plan: CommPlan, schedule, load) -> None:
        for ut in task.unit_tasks(self.granularity):
            if not ut.receivers:
                continue
            host = schedule.assignment[ut.task_id]
            sender = load.pick_on_host(ut.senders, host, ut.nbytes)
            n_chunks = self.n_chunks or adaptive_chunks(ut.nbytes)
            plan.add(self.op(task, ut, host, sender, n_chunks, plan.next_op_id))

    def op(self, task: ReshardingTask, ut, host: int, sender: int,
           n_chunks: int, op_id: int) -> CommOp:
        """The op that delivers unit task ``ut`` from ``sender`` on ``host``."""
        return BroadcastOp(
            op_id=op_id,
            unit_task_id=ut.task_id,
            region=ut.region,
            nbytes=ut.nbytes,
            sender=sender,
            receivers=ut.receivers,
            n_chunks=n_chunks,
        )
