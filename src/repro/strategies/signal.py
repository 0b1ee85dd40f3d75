"""Signal send/recv — the hypothetical upper bound of §4.

Communicates one byte per (sender, receiver) pair of every unit task,
preserving all compute data dependencies while removing essentially all
communication cost.  Used as the performance ceiling in the end-to-end
evaluation (Fig. 7).  The resulting plan cannot reconstruct the tensor,
so ``data_complete`` is False.
"""

from __future__ import annotations

from ..core.plan import CommPlan, SendOp
from ..core.task import ReshardingTask
from .base import CommStrategy

__all__ = ["SignalStrategy"]


class SignalStrategy(CommStrategy):
    name = "signal"
    data_complete = False

    def cache_key(self) -> tuple:
        return (self.name, self.granularity)

    def emit(self, task: ReshardingTask, plan: CommPlan, schedule, load) -> None:
        for ut in task.unit_tasks(self.granularity):
            if not ut.receivers:
                continue
            sender = min(ut.senders)
            for receiver in ut.receivers:
                plan.add(
                    SendOp(
                        op_id=plan.next_op_id,
                        unit_task_id=ut.task_id,
                        region=ut.region,
                        nbytes=1.0,
                        sender=sender,
                        receiver=receiver,
                    )
                )
