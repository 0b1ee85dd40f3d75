"""Plain send/recv strategy (paper §3.1, the "Send/Recv" baseline).

Every destination tile piece is delivered with an individual
point-to-point message: for each unit task (an overlap-grid region) and
each destination device requiring it, a greedily load-balanced sender
transmits the exact region.  No multicast, no intra-node offloading —
inter-host volume scales with destination replication, which is why its
latency grows as ``A x B x t`` in Figure 5.
"""

from __future__ import annotations

from ..core.plan import CommPlan, SendOp
from ..core.task import ReshardingTask
from .base import CommStrategy

__all__ = ["SendRecvStrategy"]


class SendRecvStrategy(CommStrategy):
    name = "send_recv"
    emit_uses_faults = True

    def cache_key(self) -> tuple:
        return (self.name, self.granularity)

    def emit(self, task: ReshardingTask, plan: CommPlan, schedule, load) -> None:
        for ut in task.unit_tasks(self.granularity):
            # Failure-aware: skip senders on hosts whose NIC is down at
            # plan time (degraded hosts are handled by the weighted
            # load, flapped hosts by exclusion).
            candidates = load.healthy(ut.senders)
            for receiver in ut.receivers:
                sender = load.pick(candidates, ut.nbytes)
                plan.add(
                    SendOp(
                        op_id=plan.next_op_id,
                        unit_task_id=ut.task_id,
                        region=ut.region,
                        nbytes=ut.nbytes,
                        sender=sender,
                        receiver=receiver,
                    )
                )
